package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// searchUnit is one planned evaluation unit: a graph path under one grid
// assignment, with the spec and DARR key that assignment gives it. Its
// pipeline does not exist until something runs it (build): a search whose
// units are all DARR hits instantiates nothing, and the winner's pipeline
// is built only when SearchResult.FitBest asks for it.
type searchUnit struct {
	index  int
	path   Path
	assign []gridValue // grid assignment in sorted-key order, cut from one array per search
	spec   string      // the built pipeline's Spec()
	key    string      // the unit's DARR key
}

// gridValue is one grid key's value in a unit's assignment.
type gridValue struct {
	key string
	v   float64
}

// build instantiates the unit's pipeline: fresh clones of the path's
// components with the grid assignment applied, key by key in sorted order.
func (u *searchUnit) build() (*Pipeline, error) {
	p, err := NewPipeline(u.path)
	if err != nil {
		return nil, err
	}
	for _, a := range u.assign {
		if err := p.SetParam(a.key, a.v); err != nil {
			return nil, gridError(a.key, a.v, err)
		}
	}
	return p, nil
}

func gridError(key string, v float64, err error) error {
	return fmt.Errorf("core: applying grid %s=%s: %w", key, strconv.FormatFloat(v, 'g', -1, 64), err)
}

// planUnits enumerates the (path x applicable grid assignment) units, path
// by path and, within a path, with the first grid key in sorted order
// varying slowest. It builds no pipeline. A node's share of an assignment is
// the values of the grid keys that name it; each node's spec is rendered
// once per share, on a throwaway clone with those values set, and a unit's
// spec is the join of its nodes' specs — the bytes Pipeline.Spec would
// render for the built pipeline.
//
// A grid key with candidates that is not of the form node__param, or whose
// node is on no path, is an error: it would otherwise search the defaults
// under keys that claim nothing was misspelt.
func planUnits(paths []Path, grid map[string][]float64, fp, evalSpec string) ([]searchUnit, error) {
	var keys []string // the grid keys with candidates, sorted
	for k, vs := range grid {
		if len(vs) > 0 {
			if !strings.Contains(k, "__") {
				return nil, fmt.Errorf("core: grid key %q is not of the form node__param", k)
			}
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	vals := make([][]float64, len(keys))
	for j, k := range keys {
		vals[j] = grid[k]
	}

	nodes := map[*Node]*nodePlan{}
	planOf := func(n *Node) *nodePlan {
		np := nodes[n]
		if np == nil {
			np = &nodePlan{node: n}
			shares := 1
			for j, k := range keys {
				if name, _, ok := strings.Cut(k, "__"); ok && name == n.Name {
					np.keys = append(np.keys, j)
					shares *= len(vals[j])
				}
			}
			np.specs = make([]string, shares)
			nodes[n] = np
		}
		return np
	}
	// walk sets applicable to the keys naming a node of path, in key order,
	// and row to the path's node plans.
	var applicable []int
	var row []*nodePlan
	named, onPath := make([]bool, len(keys)), make([]bool, len(keys))
	walk := func(path Path) {
		row = row[:0]
		for _, n := range path {
			np := planOf(n)
			row = append(row, np)
			for _, j := range np.keys {
				named[j] = true
			}
		}
		applicable = applicable[:0]
		for j := range keys {
			if named[j] {
				applicable = append(applicable, j)
				named[j], onPath[j] = false, true
			}
		}
	}
	at := make([]int, len(keys)) // value index per key; only the path's own move
	// each calls f once per unit, path by path, with row and at set to the
	// unit's node plans and assignment.
	each := func(f func(path Path) error) error {
		for _, path := range paths {
			walk(path)
			for {
				if err := f(path); err != nil {
					return err
				}
				// Next assignment: the last key varies fastest.
				i := len(applicable) - 1
				for ; i >= 0; i-- {
					j := applicable[i]
					if at[j]++; at[j] < len(vals[j]) {
						break
					}
					at[j] = 0
				}
				if i < 0 {
					break
				}
			}
		}
		return nil
	}

	// The first pass renders every node spec and sizes the plan.
	total, pairs, size := 0, 0, 0
	if err := each(func(Path) error {
		total, pairs = total+1, pairs+len(applicable)
		size += len(fp) + len("|input|") + len(evalSpec)
		for _, np := range row {
			spec, err := np.spec(at, keys, vals)
			if err != nil {
				return err
			}
			size += len(" -> ") + len(spec)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for j, k := range keys {
		if !onPath[j] {
			return nil, fmt.Errorf("core: grid key %q names no node on any path", k)
		}
	}

	// The second writes every key, UnitKey(fp, spec, evalSpec), end to end
	// into one string, and cuts each unit's assignment from one array. It
	// cannot fail: the first pass rendered every spec.
	var b strings.Builder
	b.Grow(size)
	ends := make([]int, 0, total)
	units := make([]searchUnit, 0, total)
	assigns := make([]gridValue, 0, pairs)
	_ = each(func(path Path) error {
		b.WriteString(fp)
		b.WriteString("|input")
		for _, np := range row {
			spec, _ := np.spec(at, keys, vals) // rendered by the first pass
			b.WriteString(" -> ")
			b.WriteString(spec)
		}
		b.WriteByte('|')
		b.WriteString(evalSpec)
		ends = append(ends, b.Len())
		from := len(assigns)
		for _, j := range applicable {
			assigns = append(assigns, gridValue{key: keys[j], v: vals[j][at[j]]})
		}
		units = append(units, searchUnit{index: len(units), path: path, assign: assigns[from:len(assigns):len(assigns)]})
		return nil
	})
	all, from := b.String(), 0
	for i, end := range ends {
		key := all[from:end]
		units[i].key, units[i].spec = key, key[len(fp)+1:len(key)-len(evalSpec)-1] // the spec is the key's middle
		from = end
	}
	return units, nil
}

// nodePlan is what planning knows about one graph node: the grid keys that
// name it and its spec under each share of an assignment.
type nodePlan struct {
	node  *Node
	keys  []int    // indices of the keys naming the node, ascending
	specs []string // by share, a mixed-radix number over keys' value indices; "" until rendered
}

// spec renders the node's spec under its share of the assignment at, once
// per share. A node with no share renders as it is; otherwise the values
// are set on a throwaway clone, in key order, so the graph's own
// components are never written. A spec holding " -> " is an error.
func (np *nodePlan) spec(at []int, keys []string, vals [][]float64) (string, error) {
	share := 0
	for _, j := range np.keys {
		share = share*len(vals[j]) + at[j]
	}
	if s := np.specs[share]; s != "" {
		return s, nil
	}
	c := np.node
	if len(np.keys) > 0 {
		c = np.node.clone()
	}
	for _, j := range np.keys {
		v := vals[j][at[j]]
		_, param, _ := strings.Cut(keys[j], "__")
		if err := c.setParam(param, v); err != nil {
			return "", gridError(keys[j], v, err)
		}
	}
	s := c.spec()
	if strings.Contains(s, " -> ") { // the prefix cache cuts a unit's spec there
		return "", fmt.Errorf("core: node %q renders as %q, which holds the pipeline separator \" -> \"", np.node.Name, s)
	}
	np.specs[share] = s
	return s, nil
}
