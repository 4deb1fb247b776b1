package cover

import "testing"

// TestSetRule is the coverage rule's table: each step reads or writes a key
// (and reports whether the Set calls it redundant), or clears or forgets.
func TestSetRule(t *testing.T) {
	type step struct {
		op        byte // 'r' read, 'w' write, 'c' Clear, 'f' Forget
		key       string
		redundant bool
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"read after read", []step{{'r', "a", false}, {'r', "a", true}, {'r', "b", false}}},
		{"read after write", []step{{'w', "a", false}, {'r', "a", true}}},
		{"write after read", []step{{'r', "a", false}, {'w', "a", false}}},
		{"write after write", []step{{'w', "a", false}, {'w', "a", true}, {'w', "a", true}}},
		{"a read of the same key keeps the next write", []step{{'w', "a", false}, {'r', "a", true}, {'w', "a", false}}},
		{"a read of another key keeps the next write", []step{{'w', "a", false}, {'r', "b", false}, {'w', "a", false}, {'w', "a", true}}},
		{"a kept write clears every other key", []step{
			{'r', "a", false}, {'r', "b", false}, {'w', "c", false},
			{'r', "a", false}, {'r', "b", false}, {'r', "c", true},
		}},
		{"a kept write replaces a read's coverage", []step{{'r', "a", false}, {'w', "a", false}, {'w', "a", true}}},
		{"forget drops one key", []step{
			{'r', "a", false}, {'r', "b", false}, {'f', "a", false},
			{'r', "a", false}, {'r', "b", true},
		}},
		{"forget drops a write's coverage", []step{{'w', "a", false}, {'f', "a", false}, {'w', "a", false}}},
		{"clear drops every key", []step{
			{'r', "a", false}, {'w', "b", false}, {'c', "", false},
			{'r', "a", false}, {'w', "b", false},
		}},
		{"the zero set clears and forgets", []step{{'c', "", false}, {'f', "a", false}, {'w', "a", false}, {'w', "a", true}}},
	}
	for _, tc := range cases {
		var s Set
		for i, st := range tc.steps {
			var got bool
			switch st.op {
			case 'r':
				got = s.Read(st.key)
			case 'w':
				got = s.Write(st.key)
			case 'c':
				s.Clear()
			case 'f':
				s.Forget(st.key)
			}
			if got != st.redundant {
				t.Errorf("%s: step %d (%c %q) redundant=%v, want %v", tc.name, i, st.op, st.key, got, st.redundant)
			}
		}
	}
}
