package nodeprog

import "testing"

func TestAssignmentsFindChains(t *testing.T) {
	asg := newAssignments(4)
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
