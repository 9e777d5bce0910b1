package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// plan is a search's units, path by path and, within a path, with the first
// grid key in sorted order varying slowest. A unit is its index: the plan
// holds each unit's DARR key, whose middle is the spec of the pipeline it
// builds, and what building that pipeline takes — the path and the unit's
// rank among the path's units. No pipeline exists until something runs the
// unit (build): a search whose units are all DARR hits instantiates nothing,
// and the winner's pipeline is built only when SearchResult.FitBest asks for
// it.
type plan struct {
	keys  []string // by unit: UnitKey(fp, spec, evalSpec), cut from one string
	paths []Path
	first []int     // by path: its first unit; then the number of units
	grid  []gridKey // the grid keys with candidates, sorted

	fpLen, evalLen int // the key's ends around the spec
}

// gridKey is one grid key with candidates, split at its first "__".
type gridKey struct {
	key, node, param string
	vals             []float64
	onPath           bool // a node of some path is named node
}

// spec is unit u's pipeline spec: the middle of its key.
func (p *plan) spec(u int) string {
	k := p.keys[u]
	return k[p.fpLen+1 : len(k)-p.evalLen-1]
}

// build instantiates unit u's pipeline: fresh clones of its path's
// components with its grid assignment applied, key by key in sorted order.
// The assignment is u's rank among its path's units, read as a mixed-radix
// number over the values of the keys naming a node of the path, the last
// key's digit the lowest.
func (p *plan) build(u int) (*Pipeline, error) {
	pi := sort.Search(len(p.paths), func(i int) bool { return p.first[i+1] > u })
	path := p.paths[pi]
	pl, err := NewPipeline(path)
	if err != nil {
		return nil, err
	}
	var applicable []*gridKey
	for i := range p.grid {
		if path.has(p.grid[i].node) {
			applicable = append(applicable, &p.grid[i])
		}
	}
	div := p.first[pi+1] - p.first[pi]
	for _, k := range applicable {
		div /= len(k.vals)
		v := k.vals[(u-p.first[pi])/div%len(k.vals)]
		if err := pl.SetParam(k.key, v); err != nil {
			return nil, gridError(k.key, v, err)
		}
	}
	return pl, nil
}

// has reports whether a node of the path is named name.
func (path Path) has(name string) bool {
	for _, n := range path {
		if n.Name == name {
			return true
		}
	}
	return false
}

func gridError(key string, v float64, err error) error {
	return fmt.Errorf("core: applying grid %s=%s: %w", key, strconv.FormatFloat(v, 'g', -1, 64), err)
}

// planUnits plans the (path x applicable grid assignment) units of paths,
// which are g's. It builds no pipeline. A node's
// share of an assignment is the values of the grid keys that name it; each
// node's spec is rendered once per share, on a throwaway clone with those
// values set, and a unit's spec is the join of its nodes' specs — the bytes
// Pipeline.Spec would render for the built pipeline.
//
// Each node on a path has every share once per as many units as the path
// has over the node's shares, so the keys' total length is known before the
// first is written: one walk over the units then writes every key end to
// end into one string.
//
// A grid key with candidates that is not of the form node__param, or whose
// node is on no path, is an error: it would otherwise search the defaults
// under keys that claim nothing was misspelt.
func planUnits(g *Graph, paths []Path, grid map[string][]float64, fp, evalSpec string) (*plan, error) {
	p := &plan{paths: paths, first: make([]int, len(paths)+1), fpLen: len(fp), evalLen: len(evalSpec)}
	p.grid = make([]gridKey, 0, len(grid))
	for k, vs := range grid {
		if len(vs) > 0 {
			node, param, ok := strings.Cut(k, "__")
			if !ok {
				return nil, fmt.Errorf("core: grid key %q is not of the form node__param", k)
			}
			p.grid = append(p.grid, gridKey{key: k, node: node, param: param, vals: vs})
		}
	}
	slices.SortFunc(p.grid, func(a, b gridKey) int { return strings.Compare(a.key, b.key) })

	// Node plans by the node's position in g, each with its keys and its
	// specs by share; the specs of every node are cut from one array.
	nps := make([]nodePlan, len(g.names))
	for i := range nps {
		nps[i].shares = 1
	}
	for j, k := range p.grid {
		if n := g.names[k.node]; n != nil {
			np := &nps[n.pos]
			np.keys = append(np.keys, j)
			np.shares *= len(k.vals)
		}
	}
	shares := 0
	for i := range nps {
		shares += nps[i].shares
	}
	specs := make([]string, shares)
	for i := range nps {
		nps[i].specs, specs = specs[:nps[i].shares:nps[i].shares], specs[nps[i].shares:]
	}

	// Every share of every node on a path is rendered, and the path's units
	// counted and their keys sized, before any key is written.
	size := 0
	fixed := len(fp) + len("|input") + len("|") + len(evalSpec)
	for pi, path := range paths {
		units := 1
		for _, n := range path {
			for _, j := range nps[n.pos].keys {
				units *= len(p.grid[j].vals)
				p.grid[j].onPath = true
			}
		}
		p.first[pi+1] = p.first[pi] + units
		size += units * fixed
		for _, n := range path {
			np := &nps[n.pos]
			for share := range np.specs {
				s, err := np.render(n, share, p.grid)
				if err != nil {
					return nil, err
				}
				size += units / np.shares * (len(" -> ") + len(s))
			}
		}
	}
	for _, k := range p.grid {
		if !k.onPath {
			return nil, fmt.Errorf("core: grid key %q names no node on any path", k.key)
		}
	}

	// The walk: each unit's key, UnitKey(fp, spec, evalSpec), in unit order.
	var b strings.Builder
	b.Grow(size)
	ends := make([]int, p.first[len(paths)])
	at := make([]int, len(p.grid)) // value index per key; only the path's own move
	applicable := make([]int, 0, len(p.grid))
	for pi, path := range paths {
		applicable = applicable[:0]
		for _, n := range path {
			applicable = append(applicable, nps[n.pos].keys...)
		}
		slices.Sort(applicable)
		for u := p.first[pi]; u < p.first[pi+1]; u++ {
			b.WriteString(fp)
			b.WriteString("|input")
			for _, n := range path {
				np := &nps[n.pos]
				b.WriteString(" -> ")
				b.WriteString(np.specs[np.share(at, p.grid)])
			}
			b.WriteByte('|')
			b.WriteString(evalSpec)
			ends[u] = b.Len()
			// Next assignment: the last key varies fastest.
			for i := len(applicable) - 1; i >= 0; i-- {
				j := applicable[i]
				if at[j]++; at[j] < len(p.grid[j].vals) {
					break
				}
				at[j] = 0
			}
		}
	}
	all, from := b.String(), 0
	p.keys = make([]string, len(ends))
	for u, end := range ends {
		p.keys[u], from = all[from:end], end
	}
	return p, nil
}

// nodePlan is what planning knows about one graph node: the grid keys that
// name it and its spec under each share of an assignment.
type nodePlan struct {
	keys   []int    // indices of the grid keys naming the node, ascending
	shares int      // the product of those keys' value counts
	specs  []string // by share, a mixed-radix number over keys' value indices
}

// share is the node's share of the assignment at.
func (np *nodePlan) share(at []int, grid []gridKey) int {
	share := 0
	for _, j := range np.keys {
		share = share*len(grid[j].vals) + at[j]
	}
	return share
}

// render renders node n's spec under its share share, once. A node with no
// share renders as it is; otherwise the share's values are set on a
// throwaway clone, in key order, so the graph's own components are never
// written. A spec holding " -> " is an error.
func (np *nodePlan) render(n *Node, share int, grid []gridKey) (string, error) {
	if s := np.specs[share]; s != "" {
		return s, nil
	}
	c := n
	if len(np.keys) > 0 {
		c = n.clone()
	}
	for i, div := 0, np.shares; i < len(np.keys); i++ {
		k := &grid[np.keys[i]]
		div /= len(k.vals)
		v := k.vals[share/div%len(k.vals)]
		if err := c.setParam(k.param, v); err != nil {
			return "", gridError(k.key, v, err)
		}
	}
	s := c.spec()
	if strings.Contains(s, " -> ") { // the prefix cache cuts a unit's spec there
		return "", fmt.Errorf("core: node %q renders as %q, which holds the pipeline separator \" -> \"", n.Name, s)
	}
	np.specs[share] = s
	return s, nil
}
