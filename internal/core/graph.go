package core

import (
	"fmt"
	"strings"
)

// Node is one vertex of a Transformer-Estimator Graph: a unique name plus
// the operation it performs (a chain of one or more Transformers, or an
// Estimator). Per the paper, the name is the placeholder through which
// external information — parameters named "<node>__<param>" — reaches the
// operation.
type Node struct {
	Name         string
	Transformers []Transformer // non-nil for transformer nodes
	Estimator    Estimator     // non-nil for estimator nodes

	pos int // the node's index in its graph, in the order nodes were added
}

// IsEstimator reports whether the node is a model (leaf-stage) vertex.
func (n *Node) IsEstimator() bool { return n.Estimator != nil }

// spec renders the node with its current parameters.
func (n *Node) spec() string {
	if n.IsEstimator() {
		return ComponentSpec(n.Estimator)
	}
	if len(n.Transformers) == 1 {
		return ComponentSpec(n.Transformers[0])
	}
	parts := make([]string, len(n.Transformers))
	for i, t := range n.Transformers {
		parts[i] = ComponentSpec(t)
	}
	return strings.Join(parts, "+")
}

// clone deep-copies the node with unfitted components.
func (n *Node) clone() *Node {
	out := &Node{Name: n.Name}
	if n.Estimator != nil {
		out.Estimator = n.Estimator.Clone()
	}
	for _, t := range n.Transformers {
		out.Transformers = append(out.Transformers, t.Clone())
	}
	return out
}

// setParam applies the param part of a "node__param" assignment to the
// node's components. For a chain node, the param goes to the first
// component in the chain that accepts it (component parameter names are
// disjoint in practice); with a single transformer it applies directly.
func (n *Node) setParam(param string, v float64) error {
	if n.Estimator != nil {
		return setComponentParam(n.Estimator, param, v)
	}
	if len(n.Transformers) == 1 {
		return setComponentParam(n.Transformers[0], param, v)
	}
	for _, t := range n.Transformers {
		if err := t.SetParam(param, v); err == nil {
			return nil
		}
	}
	return fmt.Errorf("core: chain node %q: no component accepts parameter %q", n.Name, param)
}

// Stage is one layer of the graph: a named modelling step with multiple
// candidate operations (Table I's rows).
type Stage struct {
	Name    string
	Options []*Node
}

// Graph is a Transformer-Estimator Graph G(V, E): a rooted, staged DAG.
// Build it with the Add* methods (mirroring the paper's Listing 1), then
// optionally restrict stage-to-stage connectivity with Connect — by
// default every option connects to every option of the next stage, as in
// Figure 3; Figure 11's selective wiring uses explicit edges.
//
// Builder errors stick to the graph and surface from Finalize/Paths, so
// construction code can chain calls without per-call error checks.
type Graph struct {
	stages []*Stage
	// explicit edges: fromNode -> set of allowed toNodes in the next
	// stage. A from-node absent from the map connects to all options.
	edges map[string]map[string]bool
	names map[string]*Node
	err   error
	// paths are the paths Finalize enumerated, until an Add*Stage or
	// Connect call changes the graph; Search plans from them.
	paths []Path
}

// NewGraph returns an empty Transformer-Estimator Graph.
func NewGraph() *Graph {
	return &Graph{edges: map[string]map[string]bool{}, names: map[string]*Node{}}
}

func (g *Graph) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf(format, args...)
	}
}

// register gives the node a unique name (appending _2, _3, ... on
// collision) and indexes it.
func (g *Graph) register(n *Node, base string) {
	name := base
	for i := 2; ; i++ {
		if _, taken := g.names[name]; !taken {
			break
		}
		name = fmt.Sprintf("%s_%d", base, i)
	}
	n.Name, n.pos = name, len(g.names)
	g.names[name] = n
}

// lastStageIsEstimator reports whether an estimator stage has been added
// (estimator stages are terminal).
func (g *Graph) lastStageIsEstimator() bool {
	if len(g.stages) == 0 {
		return false
	}
	opts := g.stages[len(g.stages)-1].Options
	return len(opts) > 0 && opts[0].IsEstimator()
}

// AddTransformerStage appends a stage whose options are single
// transformers. The stage name is only a label; node names derive from the
// transformers themselves.
func (g *Graph) AddTransformerStage(stageName string, options ...Transformer) *Graph {
	chains := make([][]Transformer, len(options))
	for i, t := range options {
		chains[i] = []Transformer{t}
	}
	return g.AddChainStage(stageName, chains...)
}

// AddChainStage appends a stage whose options may be chains of
// transformers, as in Listing 1's [Covariance(), PCA()] option. A chained
// node is named by joining its component names with "+".
func (g *Graph) AddChainStage(stageName string, options ...[]Transformer) *Graph {
	if g.err != nil {
		return g
	}
	if g.lastStageIsEstimator() {
		g.fail("core: cannot add stage %q after the estimator stage", stageName)
		return g
	}
	if len(options) == 0 {
		g.fail("core: stage %q has no options", stageName)
		return g
	}
	st := &Stage{Name: stageName}
	for _, chain := range options {
		if len(chain) == 0 {
			g.fail("core: stage %q contains an empty chain option", stageName)
			return g
		}
		names := make([]string, len(chain))
		for i, t := range chain {
			if t == nil {
				g.fail("core: stage %q contains a nil transformer", stageName)
				return g
			}
			names[i] = t.Name()
		}
		n := &Node{Transformers: chain}
		g.register(n, strings.Join(names, "+"))
		st.Options = append(st.Options, n)
	}
	g.stages, g.paths = append(g.stages, st), nil
	return g
}

// AddEstimatorStage appends the terminal modelling stage.
func (g *Graph) AddEstimatorStage(stageName string, options ...Estimator) *Graph {
	if g.err != nil {
		return g
	}
	if g.lastStageIsEstimator() {
		g.fail("core: graph already has an estimator stage")
		return g
	}
	if len(options) == 0 {
		g.fail("core: estimator stage %q has no options", stageName)
		return g
	}
	st := &Stage{Name: stageName}
	for _, e := range options {
		if e == nil {
			g.fail("core: stage %q contains a nil estimator", stageName)
			return g
		}
		n := &Node{Estimator: e}
		g.register(n, e.Name())
		st.Options = append(st.Options, n)
	}
	g.stages, g.paths = append(g.stages, st), nil
	return g
}

// AddFeatureScalers mirrors Listing 1's add_feature_scalers.
func (g *Graph) AddFeatureScalers(options ...Transformer) *Graph {
	return g.AddTransformerStage("feature scaling", options...)
}

// AddFeatureSelectors mirrors Listing 1's add_feature_selector; options may
// be chains such as {Covariance, PCA}.
func (g *Graph) AddFeatureSelectors(options ...[]Transformer) *Graph {
	return g.AddChainStage("feature selection", options...)
}

// AddRegressionModels mirrors Listing 1's add_regression_models.
func (g *Graph) AddRegressionModels(options ...Estimator) *Graph {
	return g.AddEstimatorStage("regression", options...)
}

// Connect restricts the edge set: once called for a from-node, that node
// connects only to the to-nodes named in Connect calls (which must live in
// the immediately following stage). Nodes never named as a from keep the
// default all-to-all connectivity.
func (g *Graph) Connect(from, to string) *Graph {
	if g.err != nil {
		return g
	}
	fromNode, ok := g.names[from]
	if !ok {
		g.fail("core: Connect: unknown node %q", from)
		return g
	}
	toNode, ok := g.names[to]
	if !ok {
		g.fail("core: Connect: unknown node %q", to)
		return g
	}
	fs, ts := g.stageOf(fromNode), g.stageOf(toNode)
	if ts != fs+1 {
		g.fail("core: Connect: %q (stage %d) and %q (stage %d) are not adjacent", from, fs, to, ts)
		return g
	}
	if g.edges[from] == nil {
		g.edges[from] = map[string]bool{}
	}
	g.edges[from][to] = true
	g.paths = nil
	return g
}

func (g *Graph) stageOf(n *Node) int {
	for i, st := range g.stages {
		for _, opt := range st.Options {
			if opt == n {
				return i
			}
		}
	}
	return -1
}

// Stages returns the graph's stages in order.
func (g *Graph) Stages() []*Stage { return g.stages }

// Finalize validates the graph: builder errors, at least one stage, a
// terminal estimator stage, and every node reachable and co-reachable given
// the explicit edges. It keeps the paths it enumerated, so a Search of the
// graph does not enumerate them again until an Add*Stage or Connect call
// changes it.
func (g *Graph) Finalize() error {
	paths, err := g.finalPaths()
	g.paths = paths
	return err
}

// finalPaths is Finalize returning the paths it enumerated, or the ones it
// kept.
func (g *Graph) finalPaths() ([]Path, error) {
	if g.err != nil {
		return nil, g.err
	}
	if g.paths != nil {
		return g.paths, nil
	}
	if len(g.stages) == 0 {
		return nil, fmt.Errorf("core: graph has no stages")
	}
	if !g.lastStageIsEstimator() {
		return nil, fmt.Errorf("core: graph must end with an estimator stage (call AddEstimatorStage)")
	}
	paths := g.Paths()
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: graph has no complete root-to-leaf paths; check Connect calls")
	}
	return paths, nil
}

// allowed reports whether an edge from -> to is in E.
func (g *Graph) allowed(from, to *Node) bool {
	set, restricted := g.edges[from.Name]
	if !restricted {
		return true
	}
	return set[to.Name]
}

// Path is one root-to-leaf pipeline skeleton: one option per stage.
type Path []*Node

// Paths enumerates every root-to-leaf path respecting the edge set.
func (g *Graph) Paths() []Path {
	if g.err != nil || len(g.stages) == 0 {
		return nil
	}
	// Every path has one node per stage; they are collected end to end in
	// one array and cut from it.
	n := len(g.stages)
	var nodes []*Node
	var walk func(stage int, acc Path)
	walk = func(stage int, acc Path) {
		if stage == n {
			nodes = append(nodes, acc...)
			return
		}
		for _, opt := range g.stages[stage].Options {
			if len(acc) > 0 && !g.allowed(acc[len(acc)-1], opt) {
				continue
			}
			walk(stage+1, append(acc, opt))
		}
	}
	walk(0, make(Path, 0, n))
	var out []Path
	for i := 0; i < len(nodes); i += n {
		out = append(out, nodes[i:i+n:i+n])
	}
	return out
}

// NumPipelines returns the number of root-to-leaf paths (36 for the Figure
// 3 working example).
func (g *Graph) NumPipelines() int { return len(g.Paths()) }
