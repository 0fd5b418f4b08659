package nodeprog

import "testing"

func TestAssignmentsRelabel(t *testing.T) {
	asg := newAssignments()
	asg.record(3, 1)
	asg.record(1, 0)
	asg.record(7, 5)
	labels := []int32{0, 1, 2, 3, 5, 7}
	out := asg.relabel(labels)
	want := []int32{0, 0, 2, 0, 5, 5}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("relabel = %v, want %v", out, want)
		}
	}
}

func TestAssignmentsFindChains(t *testing.T) {
	asg := newAssignments()
	// Chain 5 -> 4 -> 3 -> 0 built over several "iterations".
	asg.record(5, 4)
	asg.record(4, 3)
	asg.record(3, 0)
	if asg.find(5) != 0 || asg.find(4) != 0 || asg.find(3) != 0 || asg.find(0) != 0 {
		t.Fatal("chain resolution wrong")
	}
	if asg.find(99) != 99 {
		t.Fatal("unmerged id should map to itself")
	}
}
