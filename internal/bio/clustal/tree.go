package clustal

import "fmt"

// Node is a rooted guide-tree node.  Leaves carry the sequence index;
// internal nodes have exactly two children.
type Node struct {
	Leaf        int // sequence index, -1 for internal nodes
	Left, Right *Node
	Height      float64 // UPGMA: ultrametric height; NJ: join order proxy
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Leaf >= 0 }

// Leaves appends the sequence indices under n in left-to-right order.
func (n *Node) Leaves(dst []int) []int {
	if n.IsLeaf() {
		return append(dst, n.Leaf)
	}
	dst = n.Left.Leaves(dst)
	return n.Right.Leaves(dst)
}

// TreeMethod selects the guide-tree construction algorithm.
type TreeMethod int

// Guide-tree construction methods.
const (
	UPGMA TreeMethod = iota
	NeighborJoining
)

// BuildGuideTree clusters the distance matrix into a rooted binary
// guide tree.
func BuildGuideTree(dist [][]float64, method TreeMethod) (*Node, error) {
	n := len(dist)
	if n == 0 {
		return nil, fmt.Errorf("clustal: empty distance matrix")
	}
	for i := range dist {
		if len(dist[i]) != n {
			return nil, fmt.Errorf("clustal: ragged distance matrix")
		}
	}
	if n == 1 {
		return &Node{Leaf: 0}, nil
	}
	switch method {
	case UPGMA:
		return upgma(dist), nil
	case NeighborJoining:
		return neighborJoin(dist), nil
	}
	return nil, fmt.Errorf("clustal: unknown tree method %d", method)
}

// upgma is average-linkage hierarchical clustering, producing the
// rooted ultrametric tree ClustalW uses for its alignment order.
func upgma(dist [][]float64) *Node {
	n := len(dist)
	// Working copies.
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), dist[i]...)
	}
	nodes := make([]*Node, n)
	sizes := make([]int, n)
	active := make([]bool, n)
	for i := range nodes {
		nodes[i] = &Node{Leaf: i}
		sizes[i] = 1
		active[i] = true
	}
	for remaining := n; remaining > 1; remaining-- {
		// Find the closest active pair.
		bi, bj := -1, -1
		best := 0.0
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if bi < 0 || d[i][j] < best {
					best, bi, bj = d[i][j], i, j
				}
			}
		}
		// Merge j into i.
		merged := &Node{Leaf: -1, Left: nodes[bi], Right: nodes[bj], Height: best / 2}
		for k := 0; k < n; k++ {
			if k != bi && k != bj && active[k] {
				d[bi][k] = (d[bi][k]*float64(sizes[bi]) + d[bj][k]*float64(sizes[bj])) /
					float64(sizes[bi]+sizes[bj])
				d[k][bi] = d[bi][k]
			}
		}
		nodes[bi] = merged
		sizes[bi] += sizes[bj]
		active[bj] = false
	}
	for i := range nodes {
		if active[i] {
			return nodes[i]
		}
	}
	return nil
}

// neighborJoin is Saitou-Nei neighbour joining; the unrooted result is
// rooted at the final join, which is how ClustalW obtains an alignment
// order from an NJ tree.
func neighborJoin(dist [][]float64) *Node {
	n := len(dist)
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), dist[i]...)
	}
	nodes := make([]*Node, n)
	idx := make([]int, n) // active node indices into nodes/d rows
	for i := range nodes {
		nodes[i] = &Node{Leaf: i}
		idx[i] = i
	}
	order := 0.0
	for len(idx) > 2 {
		r := len(idx)
		// Row sums over active set.
		sums := make([]float64, r)
		for a := 0; a < r; a++ {
			for b := 0; b < r; b++ {
				if a != b {
					sums[a] += d[idx[a]][idx[b]]
				}
			}
		}
		// Minimize the Q criterion.
		ba, bb := 0, 1
		bestQ := 0.0
		first := true
		for a := 0; a < r; a++ {
			for b := a + 1; b < r; b++ {
				q := float64(r-2)*d[idx[a]][idx[b]] - sums[a] - sums[b]
				if first || q < bestQ {
					bestQ, ba, bb, first = q, a, b, false
				}
			}
		}
		i, j := idx[ba], idx[bb]
		order++
		merged := &Node{Leaf: -1, Left: nodes[i], Right: nodes[j], Height: order}
		// Distances from the new node.
		for c := 0; c < r; c++ {
			k := idx[c]
			if k == i || k == j {
				continue
			}
			nk := (d[i][k] + d[j][k] - d[i][j]) / 2
			d[i][k], d[k][i] = nk, nk
		}
		nodes[i] = merged
		// Remove bb from the active set.
		idx = append(idx[:bb], idx[bb+1:]...)
	}
	order++
	return &Node{Leaf: -1, Left: nodes[idx[0]], Right: nodes[idx[1]], Height: order}
}
