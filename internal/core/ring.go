package core

// Ring models the chain's logical ring (§5): N middleboxes hosted on ring
// positions 0..N-1, plus extension replicas when the chain is shorter than
// f+1 (§5.1), for a total of M = max(N, F+1) ring nodes. The replication
// group of middlebox j is the F+1 consecutive ring nodes starting at j, so
// a ring node is the tail of at most one middlebox.
type Ring struct {
	N int // number of middleboxes
	F int // failures tolerated
}

// M reports the ring size: chain nodes plus extension replicas.
func (r Ring) M() int {
	if r.F+1 > r.N {
		return r.F + 1
	}
	return r.N
}

// Members lists the ring nodes in middlebox j's replication group, head
// first.
func (r Ring) Members(j int) []int {
	m := r.M()
	out := make([]int, r.F+1)
	for k := 0; k <= r.F; k++ {
		out[k] = (j + k) % m
	}
	return out
}

// Head returns middlebox j's head node (its own position).
func (r Ring) Head(j int) int { return j }

// Tail returns middlebox j's tail node.
func (r Ring) Tail(j int) int { return (j + r.F) % r.M() }

// IsMember reports whether ring node i is in middlebox j's group.
func (r Ring) IsMember(i, j int) bool {
	m := r.M()
	d := ((i-j)%m + m) % m
	return d <= r.F
}

// FollowerOf lists the middleboxes ring node i follows (is a non-head
// member of).
func (r Ring) FollowerOf(i int) []int {
	var out []int
	m := r.M()
	for k := 1; k <= r.F; k++ {
		j := ((i-k)%m + m) % m
		if j < r.N {
			out = append(out, j)
		}
	}
	return out
}

// TailOf returns the middlebox ring node i is the tail of, or -1.
func (r Ring) TailOf(i int) int {
	m := r.M()
	j := ((i-r.F)%m + m) % m
	if j < r.N {
		return j
	}
	return -1
}

// IsTail reports whether ring node i is middlebox j's group tail.
func (r Ring) IsTail(i, j int) bool {
	return j >= 0 && j < r.N && r.Tail(j) == i
}

// PredecessorInGroup returns the ring node before i within middlebox j's
// group (the head has no predecessor; returns -1).
func (r Ring) PredecessorInGroup(i, j int) int {
	if !r.IsMember(i, j) || i == j {
		return -1
	}
	m := r.M()
	return ((i-1)%m + m) % m
}

// SuccessorInGroup returns the ring node after i within middlebox j's group
// (the tail has no successor; returns -1).
func (r Ring) SuccessorInGroup(i, j int) int {
	if !r.IsMember(i, j) || i == r.Tail(j) {
		return -1
	}
	return (i + 1) % r.M()
}

// Wrapped reports whether middlebox j's group finishes replicating only
// after the packet has already left node j — its tail sits at or before the
// head's chain position — so the buffer must hold packets until j's commit
// vector confirms replication (§5.1).
func (r Ring) Wrapped(j int) bool { return j+r.F >= r.M() }
