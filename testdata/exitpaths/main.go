// Package main is a ring of workers that ends the way failing programs do.
// A token goes round four goroutines; whoever holds it adds its mark to every
// word of one shared array, so each word read was last written by the worker
// before — a ring in the communication matrix, fixed by the hand-off whatever
// the scheduler does. Then main gives up with os.Exit(3), which runs no
// deferred call; with EXITPATHS=panic a worker panics half-way instead. The
// profile has to survive both: the rewriter routes the os.Exit through the
// shim, and the panic loses only the part of the trace not yet written.
package main

import (
	"fmt"
	"os"
	"time"
)

const (
	workers = 4
	rounds  = 64
	words   = 256
)

var ring [words]int64

func worker(id int, in <-chan int, out chan<- int) {
	for round := range in {
		if id == 0 && round == rounds/2 && os.Getenv("EXITPATHS") == "panic" {
			// When recording, die only once some whole trace blocks are on
			// disk (the first half is well over 100 KB of them): what a panic
			// leaves behind is then the same on a busy host as on an idle one.
			for path := os.Getenv("COMMPROF_TRACE"); path != ""; time.Sleep(time.Millisecond) {
				if fi, err := os.Stat(path); err == nil && fi.Size() >= 32<<10 {
					break
				}
			}
			panic("worker 0 gives up")
		}
		for i := 0; i < words; i++ {
			ring[i] += int64(id + 1)
		}
		out <- round
	}
}

func main() {
	var link [workers + 1]chan int
	for i := range link {
		link[i] = make(chan int)
	}
	for id := 0; id < workers; id++ {
		go worker(id, link[id], link[id+1])
	}
	for round := 0; round < rounds; round++ {
		link[0] <- round
		<-link[workers]
	}
	fmt.Println("ring[0]:", ring[0])
	os.Exit(3)
}
