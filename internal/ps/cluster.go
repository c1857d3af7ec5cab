package ps

import (
	"hash/fnv"

	"agl/internal/nn"
	"agl/internal/tensor"
)

// Client is a worker's view of the parameter servers.
type Client interface {
	// PullInto overwrites the local replica's weights with the servers'.
	PullInto(params *nn.ParamSet) error
	// PushGrads ships the replica's accumulated gradients. In Sync mode the
	// call returns after the global step has been applied.
	PushGrads(params *nn.ParamSet) error
	// Register joins the synchronization group; Deregister leaves it.
	Register()
	Deregister()
}

// ShardOf maps a parameter name to its owning shard. Servers and clients
// must agree on this function.
func ShardOf(name string, numShards int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(numShards))
}

// Cluster is a set of shards with parameters distributed by name hash —
// the "servers" box of the paper's Figure 4.
type Cluster struct {
	shards []*Shard
	route  map[string]int
}

// NewCluster shards the parameter set over numShards servers. optFactory is
// called once per shard so optimizer state (e.g. Adam moments) stays
// shard-local, exactly as in a real deployment.
func NewCluster(numShards int, params *nn.ParamSet, optFactory func() nn.Optimizer, mode Mode) *Cluster {
	if numShards < 1 {
		numShards = 1
	}
	c := &Cluster{route: make(map[string]int)}
	groups := make([][]*nn.Param, numShards)
	for _, p := range params.List() {
		idx := ShardOf(p.Name, numShards)
		groups[idx] = append(groups[idx], p)
		c.route[p.Name] = idx
	}
	for i := 0; i < numShards; i++ {
		c.shards = append(c.shards, NewShard(groups[i], optFactory(), mode))
	}
	return c
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns shard i (for tests).
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Snapshot copies current server weights into dst by name.
func (c *Cluster) Snapshot(dst *nn.ParamSet) {
	for _, s := range c.shards {
		s.Snapshot(dst)
	}
}

// Traffic sums bytes served/received over all shards.
func (c *Cluster) Traffic() (out, in int64) {
	for _, s := range c.shards {
		o, i := s.Traffic()
		out += o
		in += i
	}
	return out, in
}

// Client returns an in-process client for this cluster.
func (c *Cluster) Client() Client { return &localClient{c: c} }

type localClient struct{ c *Cluster }

func (lc *localClient) Register() {
	for _, s := range lc.c.shards {
		s.Register()
	}
}

func (lc *localClient) Deregister() {
	for _, s := range lc.c.shards {
		s.Deregister()
	}
}

func (lc *localClient) PullInto(params *nn.ParamSet) error {
	names := make([][]string, len(lc.c.shards))
	for _, n := range params.Names() {
		idx, ok := lc.c.route[n]
		if !ok {
			continue
		}
		names[idx] = append(names[idx], n)
	}
	for i, ns := range names {
		if len(ns) == 0 {
			continue
		}
		vals, err := lc.c.shards[i].Pull(ns)
		if err != nil {
			return err
		}
		for n, w := range vals {
			params.Get(n).W.CopyFrom(w)
		}
	}
	return nil
}

func (lc *localClient) PushGrads(params *nn.ParamSet) error {
	groups := make([]map[string]*tensor.Matrix, len(lc.c.shards))
	for _, p := range params.List() {
		idx, ok := lc.c.route[p.Name]
		if !ok {
			continue
		}
		if groups[idx] == nil {
			groups[idx] = make(map[string]*tensor.Matrix)
		}
		groups[idx][p.Name] = p.Grad
	}
	// Sync-mode pushes block until the step applies, so each shard's push
	// must run concurrently or shard 2 would wait on shard 1's barrier.
	errs := make(chan error, len(lc.c.shards))
	n := 0
	for i, g := range groups {
		if g == nil {
			continue
		}
		n++
		go func(i int, g map[string]*tensor.Matrix) {
			errs <- lc.c.shards[i].Push(g)
		}(i, g)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
