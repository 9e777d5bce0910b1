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
// units are all DARR hits instantiates nothing but the winner's refit.
type searchUnit struct {
	index  int
	path   Path
	params map[string]float64 // grid assignment
	spec   string             // the built pipeline's Spec()
	key    string             // the unit's DARR key
}

// build instantiates the unit's pipeline: fresh clones of the path's
// components with the grid assignment applied.
func (u *searchUnit) build() (*Pipeline, error) {
	p, err := NewPipeline(u.path)
	if err != nil {
		return nil, err
	}
	for k, v := range u.params {
		if err := p.SetParam(k, v); err != nil {
			return nil, gridError(k, v, err)
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
func planUnits(paths []Path, grid map[string][]float64, fp, evalSpec string) ([]searchUnit, error) {
	var keys []string // the grid keys with candidates, sorted
	for k, vs := range grid {
		if len(vs) > 0 {
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
	// and row to the path's node plans, and returns the path's unit count.
	var applicable []int
	var row []*nodePlan
	named := make([]bool, len(keys))
	walk := func(path Path) (units int) {
		row = row[:0]
		for _, n := range path {
			np := planOf(n)
			row = append(row, np)
			for _, j := range np.keys {
				named[j] = true
			}
		}
		applicable, units = applicable[:0], 1
		for j := range keys {
			if named[j] {
				applicable, units = append(applicable, j), units*len(vals[j])
				named[j] = false
			}
		}
		return units
	}
	total := 0
	for _, path := range paths {
		total += walk(path)
	}

	units := make([]searchUnit, 0, total)
	at := make([]int, len(keys)) // value index per key; only the path's own move
	specs := make([]string, 0, len(row))
	for _, path := range paths {
		walk(path)
		for {
			size := len(fp) + len("|input|") + len(evalSpec)
			specs = specs[:0]
			for _, np := range row {
				spec, err := np.spec(at, keys, vals)
				if err != nil {
					return nil, err
				}
				specs = append(specs, spec)
				size += len(" -> ") + len(spec)
			}
			// The key is UnitKey(fp, spec, evalSpec) in one allocation; the
			// spec is its middle.
			var b strings.Builder
			b.Grow(size)
			b.WriteString(fp)
			b.WriteString("|input")
			for _, s := range specs {
				b.WriteString(" -> ")
				b.WriteString(s)
			}
			b.WriteByte('|')
			b.WriteString(evalSpec)
			key := b.String()

			params := make(map[string]float64, len(applicable))
			for _, j := range applicable {
				params[keys[j]] = vals[j][at[j]]
			}
			units = append(units, searchUnit{index: len(units), path: path, params: params,
				spec: key[len(fp)+1 : len(key)-len(evalSpec)-1], key: key})

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
// components are never written.
func (np *nodePlan) spec(at []int, keys []string, vals [][]float64) (string, error) {
	share := 0
	for _, j := range np.keys {
		share = share*len(vals[j]) + at[j]
	}
	if s := np.specs[share]; s != "" {
		return s, nil
	}
	if len(np.keys) == 0 {
		np.specs[0] = np.node.spec()
		return np.specs[0], nil
	}
	c := np.node.clone()
	for _, j := range np.keys {
		v := vals[j][at[j]]
		_, param, _ := strings.Cut(keys[j], "__")
		if err := c.setParam(param, v); err != nil {
			return "", gridError(keys[j], v, err)
		}
	}
	np.specs[share] = c.spec()
	return np.specs[share], nil
}
