module commprof/bench

go 1.22

require commprof v0.0.0

replace commprof => ../
