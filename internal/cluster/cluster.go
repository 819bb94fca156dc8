// Package cluster models the GPU clusters Lyra schedules over: 8-GPU
// servers of heterogeneous GPU types, partitioned into a training pool, an
// inference pool, and an on-loan pool (inference servers temporarily under
// the training scheduler's control). It provides the whitelist bookkeeping
// the paper's orchestrator manipulates (§6, "Interface for capacity
// loaning") and the free-GPU accounting the job scheduler allocates from.
//
// The cluster is maintain-on-write: every pool keeps an ID-ordered member
// index, a free-count bucket index (servers grouped by free GPUs, the
// best-fit index), and O(1) capacity counters (free/used/total/flexible
// GPUs, empty/partial server counts, per-GPU-type splits), all updated
// inside Allocate/Release/ReleaseJob/Move. Reads — placement lookups,
// capacity counts, pool iteration — never rescan or re-sort the cluster;
// AuditIndexes cross-checks every index against a from-scratch recount and
// is wired into the invariant audit layer, so all tests continuously prove
// the incremental bookkeeping equal to the naive one.
package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// GPUType identifies a GPU model. Speeds are normalized to V100 = 1.0,
// matching the paper's observation that ~3 loaned T4 servers equal one
// training server in computational capability (§7.5).
type GPUType uint8

// Supported GPU types.
const (
	V100 GPUType = iota // training-cluster GPU (32 GB)
	T4                  // inference-cluster GPU (16 GB)
	A100                // optional high-end training GPU (40 GB)
	numGPUTypes
)

// Speed returns the relative training throughput of one GPU of this type,
// normalized so that V100 = 1.0.
func (g GPUType) Speed() float64 {
	switch g {
	case V100:
		return 1.0
	case T4:
		return 0.35
	case A100:
		return 1.6
	}
	return 0
}

// MemGB returns the GPU memory in gigabytes, used to decide whether a
// fungible job must shrink its local batch size when moved to a smaller GPU.
func (g GPUType) MemGB() int {
	switch g {
	case V100:
		return 32
	case T4:
		return 16
	case A100:
		return 40
	}
	return 0
}

func (g GPUType) String() string {
	switch g {
	case V100:
		return "V100"
	case T4:
		return "T4"
	case A100:
		return "A100"
	}
	return fmt.Sprintf("GPUType(%d)", uint8(g))
}

// ParseGPUType decodes a GPU model name as written in scenario specs and
// CLI flags ("V100", "T4", "A100", case-insensitive).
func ParseGPUType(s string) (GPUType, error) {
	for g := GPUType(0); g < numGPUTypes; g++ {
		if strings.EqualFold(s, g.String()) {
			return g, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown GPU type %q (valid: V100, T4, A100)", s)
}

// Pool identifies which scheduler currently controls a server.
type Pool uint8

// Server pools. Training and OnLoan servers are on the training scheduler's
// whitelist; Inference servers are controlled by the inference scheduler.
// Quarantine holds crashed servers: they belong to no scheduler until fault
// recovery moves them back into service.
const (
	PoolTraining Pool = iota
	PoolOnLoan
	PoolInference
	PoolQuarantine
	numPools
)

func (p Pool) String() string {
	switch p {
	case PoolTraining:
		return "training"
	case PoolOnLoan:
		return "on-loan"
	case PoolInference:
		return "inference"
	case PoolQuarantine:
		return "quarantine"
	}
	return fmt.Sprintf("Pool(%d)", uint8(p))
}

// ServersPerGPUCount is the default server size in both production clusters
// described by the paper (443 8-GPU training servers, 520 8-GPU inference
// servers).
const DefaultGPUsPerServer = 8

// Default failure-domain shape: racks of 8 servers, zones of 4 racks.
// Resolved inside New when Config leaves RackSize / ZoneRacks at zero.
const (
	DefaultRackSize  = 8
	DefaultZoneRacks = 4
)

// Server is one physical machine. The basic unit of capacity loaning is a
// whole server (§3), so a server is always wholly in one pool.
type Server struct {
	ID      int
	GPU     GPUType
	NumGPUs int
	Pool    Pool
	free    int
	// flexTotal caches the sum of the flexible map so TotalFlexible is O(1).
	flexTotal int
	alloc     map[int]int // job ID -> GPUs allocated on this server
	flexible  map[int]int // job ID -> GPUs belonging to flexible (elastic surplus) workers
	// owner is the cluster maintaining pool/bucket indexes over this
	// server; every allocation change is mirrored into its counters. Nil
	// for standalone servers (reclaim fixtures, unit tests).
	owner *Cluster
}

// NewServer returns an empty server with all GPUs free.
func NewServer(id int, gpu GPUType, numGPUs int, pool Pool) *Server {
	return &Server{
		ID:       id,
		GPU:      gpu,
		NumGPUs:  numGPUs,
		Pool:     pool,
		free:     numGPUs,
		alloc:    make(map[int]int),
		flexible: make(map[int]int),
	}
}

// Free returns the number of unallocated GPUs.
func (s *Server) Free() int { return s.free }

// Used returns the number of allocated GPUs.
func (s *Server) Used() int { return s.NumGPUs - s.free }

// Jobs returns the IDs of jobs with at least one GPU on this server, in
// ascending order.
func (s *Server) Jobs() []int {
	ids := make([]int, 0, len(s.alloc))
	for id := range s.alloc {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// JobGPUs returns the number of GPUs job id holds on this server.
func (s *Server) JobGPUs(id int) int { return s.alloc[id] }

// FlexibleGPUs returns the number of GPUs held by flexible (elastic surplus)
// workers of job id on this server.
func (s *Server) FlexibleGPUs(id int) int { return s.flexible[id] }

// TotalFlexible returns the GPUs held by flexible workers of any job.
func (s *Server) TotalFlexible() int { return s.flexTotal }

// notify mirrors an allocation change into the owning cluster's indexes.
func (s *Server) notify(oldFree, flexDelta int) {
	if s.owner != nil {
		s.owner.serverChanged(s, oldFree, flexDelta)
	}
}

// Allocate assigns gpus GPUs on this server to job id. flexible marks the
// GPUs as belonging to elastic surplus workers, which the orchestrator may
// release without preempting the job (§5.3).
func (s *Server) Allocate(id, gpus int, flexible bool) error {
	if gpus <= 0 {
		return fmt.Errorf("cluster: allocate %d GPUs to job %d on server %d", gpus, id, s.ID)
	}
	if gpus > s.free {
		return fmt.Errorf("cluster: server %d has %d free GPUs, job %d wants %d", s.ID, s.free, id, gpus)
	}
	oldFree := s.free
	s.free -= gpus
	s.alloc[id] += gpus
	flexDelta := 0
	if flexible {
		s.flexible[id] += gpus
		s.flexTotal += gpus
		flexDelta = gpus
	}
	s.notify(oldFree, flexDelta)
	return nil
}

// Release frees gpus GPUs held by job id. Flexible GPUs are released first,
// mirroring Lyra's preference to scale in before preempting.
func (s *Server) Release(id, gpus int) error {
	held := s.alloc[id]
	if gpus > held {
		return fmt.Errorf("cluster: job %d holds %d GPUs on server %d, released %d", id, held, s.ID, gpus)
	}
	oldFree := s.free
	s.free += gpus
	flexDelta := 0
	if held == gpus {
		delete(s.alloc, id)
		if f := s.flexible[id]; f > 0 {
			flexDelta = -f
			delete(s.flexible, id)
		}
	} else {
		s.alloc[id] = held - gpus
		if f := s.flexible[id]; f > 0 {
			if nf := f - gpus; nf <= 0 {
				flexDelta = -f
				delete(s.flexible, id)
			} else {
				flexDelta = -gpus
				s.flexible[id] = nf
			}
		}
	}
	s.flexTotal += flexDelta
	s.notify(oldFree, flexDelta)
	return nil
}

// ReleaseJob frees every GPU held by job id and reports how many were held.
func (s *Server) ReleaseJob(id int) int {
	held := s.alloc[id]
	if held == 0 {
		return 0
	}
	oldFree := s.free
	s.free += held
	delete(s.alloc, id)
	flexDelta := 0
	if f := s.flexible[id]; f > 0 {
		flexDelta = -f
		delete(s.flexible, id)
	}
	s.flexTotal += flexDelta
	s.notify(oldFree, flexDelta)
	return held
}

// Cluster is the combined training + inference infrastructure. All mutation
// happens through methods so pool invariants (a server is in exactly one
// pool; free counts match allocations; indexes match the servers) cannot be
// violated from outside.
type Cluster struct {
	// servers is indexed by ID - firstID. Slots are nil where no server with
	// that ID is currently attached (after Detach, or for IDs adopted beyond
	// the initial range), so lookups stay O(1) under sharded topologies where
	// each shard owns a contiguous slice of the global ID space plus any
	// servers currently on loan to it.
	servers []*Server
	firstID int
	// shard labels which shard this cluster is in a sharded topology
	// (-1 when unsharded).
	shard int
	// n counts attached (non-nil) servers.
	n int
	// pools[p] holds pool p's members in ascending ID order, maintained
	// incrementally on addServer/Move — reads never sort.
	pools [numPools][]*Server
	// buckets[p][f] holds pool p's servers with exactly f free GPUs, each
	// bucket in ascending ID order: the best-fit placement index. A
	// server's allocation change moves it between buckets (see
	// serverChanged).
	buckets [numPools][][]*Server
	// O(1) capacity counters per pool.
	freeCnt  [numPools]int
	usedCnt  [numPools]int
	totalCnt [numPools]int
	flexCnt  [numPools]int
	// partialCnt / emptyCnt count servers with 0 < Used < NumGPUs and
	// Used == 0. srvByType / freeByType split membership and free GPUs by
	// GPU type (pools are homogeneous in practice; nothing here assumes
	// it), giving O(1) NormalizedFreeCapacity and pool-GPU lookups.
	partialCnt [numPools]int
	emptyCnt   [numPools]int
	srvByType  [numPools][numGPUTypes]int
	freeByType [numPools][numGPUTypes]int
	// Failure-domain topology, assigned once in New and immutable after:
	// rackOf/zoneOf map server ID -> domain index, racks/zones list each
	// domain's member server IDs in ascending order. Racks never span the
	// training/inference boundary (an outage of a training rack cannot
	// take inference capacity with it by construction), and zones group
	// whole racks within the same segment.
	rackOf []int
	zoneOf []int
	racks  [][]int
	zones  [][]int
}

// Config sizes a cluster. Zero values fall back to the paper's production
// scale: 443 8-GPU V100 training servers and 520 8-GPU T4 inference servers.
type Config struct {
	TrainingServers  int
	InferenceServers int
	GPUsPerServer    int
	TrainingGPU      GPUType
	InferenceGPU     GPUType
	// RackSize and ZoneRacks shape the failure-domain topology: servers
	// per rack and racks per zone. Zero means the defaults (8 servers per
	// rack, 4 racks per zone), resolved inside New so that configurations
	// written before the topology existed keep their content keys. The
	// json tags keep the zero values out of runner cache keys.
	RackSize  int `json:",omitempty"`
	ZoneRacks int `json:",omitempty"`
	// FirstID offsets server IDs: the cluster's servers get IDs [FirstID,
	// FirstID+TrainingServers+InferenceServers). Sharded topologies carve
	// the global ID space into contiguous per-shard ranges so a server
	// keeps its identity as loans move it between shard clusters. Zero (the
	// unsharded case) is omitted from runner cache keys.
	FirstID int `json:",omitempty"`
	// Shard labels the shard this cluster is in a sharded topology. It is
	// decoration only (obs, debugging); zero keys identically to unsharded.
	Shard int `json:",omitempty"`
}

// DefaultConfig is the production-scale configuration from §7.1.
func DefaultConfig() Config {
	return Config{
		TrainingServers:  443,
		InferenceServers: 520,
		GPUsPerServer:    DefaultGPUsPerServer,
		TrainingGPU:      V100,
		InferenceGPU:     T4,
	}
}

// TestbedConfig is the 64-GPU testbed from §7.1: four 8-GPU V100 training
// servers and four 8-GPU T4 inference servers.
func TestbedConfig() Config {
	return Config{
		TrainingServers:  4,
		InferenceServers: 4,
		GPUsPerServer:    DefaultGPUsPerServer,
		TrainingGPU:      V100,
		InferenceGPU:     T4,
	}
}

// New builds a cluster from cfg. Training servers get IDs [0,
// TrainingServers); inference servers follow. When both GPU types are left
// at their zero value (V100), the inference cluster defaults to T4,
// matching the production deployment of §2.1.
func New(cfg Config) *Cluster {
	if cfg.GPUsPerServer == 0 {
		cfg.GPUsPerServer = DefaultGPUsPerServer
	}
	if cfg.TrainingGPU == V100 && cfg.InferenceGPU == V100 {
		cfg.InferenceGPU = T4
	}
	c := &Cluster{firstID: cfg.FirstID, shard: cfg.Shard}
	id := cfg.FirstID
	for i := 0; i < cfg.TrainingServers; i++ {
		c.addServer(NewServer(id, cfg.TrainingGPU, cfg.GPUsPerServer, PoolTraining))
		id++
	}
	for i := 0; i < cfg.InferenceServers; i++ {
		c.addServer(NewServer(id, cfg.InferenceGPU, cfg.GPUsPerServer, PoolInference))
		id++
	}
	c.assignDomains(cfg)
	return c
}

// Carve builds the cluster shape cfg as a sharded topology: nTrain
// training-shard clusters followed by nInf inference-shard clusters, each
// over its own contiguous slice of the global server ID space (training
// ranges first, matching the ID layout New gives the same shape). Servers
// are dealt evenly, the remainder going to the lowest-numbered shards, so
// a 1+1 carve holds exactly New(cfg)'s servers under the same IDs. The
// GPU-type default is resolved once here, so a training-only shard cannot
// re-trigger it.
func Carve(cfg Config, nTrain, nInf int) (train, inf []*Cluster) {
	if cfg.GPUsPerServer == 0 {
		cfg.GPUsPerServer = DefaultGPUsPerServer
	}
	if cfg.TrainingGPU == V100 && cfg.InferenceGPU == V100 {
		cfg.InferenceGPU = T4
	}
	firstID, shard := 0, 0
	carve := func(total, n int, training bool) []*Cluster {
		out := make([]*Cluster, n)
		for i := range out {
			cnt := total / n
			if i < total%n {
				cnt++
			}
			sc := Config{
				GPUsPerServer: cfg.GPUsPerServer,
				TrainingGPU:   cfg.TrainingGPU, InferenceGPU: cfg.InferenceGPU,
				RackSize: cfg.RackSize, ZoneRacks: cfg.ZoneRacks,
				FirstID: firstID, Shard: shard,
			}
			if training {
				sc.TrainingServers = cnt
			} else {
				sc.InferenceServers = cnt
			}
			out[i] = New(sc)
			firstID += cnt
			shard++
		}
		return out
	}
	train = carve(cfg.TrainingServers, nTrain, true)
	inf = carve(cfg.InferenceServers, nInf, false)
	return train, inf
}

// FirstID returns the lowest server ID of the cluster's home ID range.
func (c *Cluster) FirstID() int { return c.firstID }

// Shard returns the shard label assigned at construction (zero when
// unsharded).
func (c *Cluster) Shard() int { return c.shard }

// assignDomains computes the deterministic server -> rack -> zone mapping
// from the cluster shape: consecutive server IDs fill racks of RackSize
// within each segment (training first, then inference), and consecutive
// racks fill zones of ZoneRacks, also per segment. The mapping depends only
// on Config, so two clusters built from the same shape agree on it.
func (c *Cluster) assignDomains(cfg Config) {
	rackSize := cfg.RackSize
	if rackSize <= 0 {
		rackSize = DefaultRackSize
	}
	zoneRacks := cfg.ZoneRacks
	if zoneRacks <= 0 {
		zoneRacks = DefaultZoneRacks
	}
	n := len(c.servers)
	c.rackOf = make([]int, n)
	c.zoneOf = make([]int, n)
	for _, seg := range [][2]int{{0, cfg.TrainingServers}, {cfg.TrainingServers, n}} {
		segRack0 := len(c.racks)
		for off := seg[0]; off < seg[1]; off++ {
			r := segRack0 + (off-seg[0])/rackSize
			for len(c.racks) <= r {
				c.racks = append(c.racks, nil)
			}
			c.rackOf[off] = r
			c.racks[r] = append(c.racks[r], off+c.firstID)
		}
		for r := segRack0; r < len(c.racks); r++ {
			z := len(c.zones) - 1
			if r == segRack0 || (r-segRack0)%zoneRacks == 0 {
				c.zones = append(c.zones, nil)
				z++
			}
			for _, id := range c.racks[r] {
				c.zoneOf[id-c.firstID] = z
				c.zones[z] = append(c.zones[z], id)
			}
		}
	}
}

// NumRacks returns the number of racks in the failure-domain topology.
func (c *Cluster) NumRacks() int { return len(c.racks) }

// NumZones returns the number of zones in the failure-domain topology.
func (c *Cluster) NumZones() int { return len(c.zones) }

// RackOf returns the rack index of server id (-1 for unknown IDs).
func (c *Cluster) RackOf(id int) int {
	off := id - c.firstID
	if off < 0 || off >= len(c.rackOf) {
		return -1
	}
	return c.rackOf[off]
}

// ZoneOf returns the zone index of server id (-1 for unknown IDs).
func (c *Cluster) ZoneOf(id int) int {
	off := id - c.firstID
	if off < 0 || off >= len(c.zoneOf) {
		return -1
	}
	return c.zoneOf[off]
}

// RackServers returns the server IDs of rack r in ascending order. The
// returned slice is the live index: callers must not modify it.
func (c *Cluster) RackServers(r int) []int {
	if r < 0 || r >= len(c.racks) {
		return nil
	}
	return c.racks[r]
}

// ZoneServers returns the server IDs of zone z in ascending order. The
// returned slice is the live index: callers must not modify it.
func (c *Cluster) ZoneServers(z int) []int {
	if z < 0 || z >= len(c.zones) {
		return nil
	}
	return c.zones[z]
}

// insertByID inserts s into an ID-ordered server list.
func insertByID(list []*Server, s *Server) []*Server {
	i := sort.Search(len(list), func(k int) bool { return list[k].ID >= s.ID })
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = s
	return list
}

// removeByID removes s from an ID-ordered server list. A missing entry is
// index corruption, which must fail loudly rather than silently desync.
func removeByID(list []*Server, s *Server) []*Server {
	i := sort.Search(len(list), func(k int) bool { return list[k].ID >= s.ID })
	if i >= len(list) || list[i] != s {
		panic(fmt.Sprintf("cluster: server %d missing from its index", s.ID))
	}
	copy(list[i:], list[i+1:])
	return list[:len(list)-1]
}

func (c *Cluster) bucketInsert(p Pool, s *Server) {
	for len(c.buckets[p]) <= s.free {
		c.buckets[p] = append(c.buckets[p], nil)
	}
	c.buckets[p][s.free] = insertByID(c.buckets[p][s.free], s)
}

func (c *Cluster) bucketRemove(p Pool, s *Server, free int) {
	c.buckets[p][free] = removeByID(c.buckets[p][free], s)
}

// enterPool adds s (whose Pool field is already p) to every per-pool index
// and counter.
func (c *Cluster) enterPool(p Pool, s *Server) {
	c.pools[p] = insertByID(c.pools[p], s)
	c.bucketInsert(p, s)
	c.freeCnt[p] += s.free
	c.usedCnt[p] += s.Used()
	c.totalCnt[p] += s.NumGPUs
	c.flexCnt[p] += s.flexTotal
	c.srvByType[p][s.GPU]++
	c.freeByType[p][s.GPU] += s.free
	switch u := s.Used(); {
	case u == 0:
		c.emptyCnt[p]++
	case u < s.NumGPUs:
		c.partialCnt[p]++
	}
}

// leavePool removes s from pool p's indexes and counters.
func (c *Cluster) leavePool(p Pool, s *Server) {
	c.pools[p] = removeByID(c.pools[p], s)
	c.bucketRemove(p, s, s.free)
	c.freeCnt[p] -= s.free
	c.usedCnt[p] -= s.Used()
	c.totalCnt[p] -= s.NumGPUs
	c.flexCnt[p] -= s.flexTotal
	c.srvByType[p][s.GPU]--
	c.freeByType[p][s.GPU] -= s.free
	switch u := s.Used(); {
	case u == 0:
		c.emptyCnt[p]--
	case u < s.NumGPUs:
		c.partialCnt[p]--
	}
}

// serverChanged is the single write-path hook: a server whose free count
// moved from oldFree to s.free (and whose flexible GPUs moved by flexDelta)
// is re-bucketed and every affected counter is updated in O(log bucket).
func (c *Cluster) serverChanged(s *Server, oldFree, flexDelta int) {
	p := s.Pool
	c.flexCnt[p] += flexDelta
	if oldFree == s.free {
		return
	}
	c.bucketRemove(p, s, oldFree)
	c.bucketInsert(p, s)
	d := s.free - oldFree
	c.freeCnt[p] += d
	c.usedCnt[p] -= d
	c.freeByType[p][s.GPU] += d
	switch oldUsed := s.NumGPUs - oldFree; {
	case oldUsed == 0:
		c.emptyCnt[p]--
	case oldUsed < s.NumGPUs:
		c.partialCnt[p]--
	}
	switch newUsed := s.Used(); {
	case newUsed == 0:
		c.emptyCnt[p]++
	case newUsed < s.NumGPUs:
		c.partialCnt[p]++
	}
}

func (c *Cluster) addServer(s *Server) {
	s.owner = c
	off := s.ID - c.firstID
	for len(c.servers) <= off {
		c.servers = append(c.servers, nil)
	}
	if c.servers[off] != nil {
		panic(fmt.Sprintf("cluster: duplicate server %d", s.ID))
	}
	c.servers[off] = s
	c.n++
	c.enterPool(s.Pool, s)
}

// Server returns the server with the given ID, or nil.
func (c *Cluster) Server(id int) *Server {
	off := id - c.firstID
	if off < 0 || off >= len(c.servers) {
		return nil
	}
	return c.servers[off]
}

// NumServers returns the total number of servers in all pools.
func (c *Cluster) NumServers() int { return c.n }

// Servers returns a copy of all attached servers, in ID order. Use
// EachServer on hot paths that only iterate.
func (c *Cluster) Servers() []*Server {
	out := make([]*Server, 0, c.n)
	for _, s := range c.servers {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// EachServer calls fn for every server in ascending ID order, stopping
// early when fn returns false. The callback may change allocations but must
// not move servers between pools.
func (c *Cluster) EachServer(fn func(*Server) bool) {
	for _, s := range c.servers {
		if s == nil {
			continue
		}
		if !fn(s) {
			return
		}
	}
}

// Detach removes an empty server from the cluster entirely — pool index,
// counters, and ID slot — and returns it so another shard's cluster can
// Adopt it. This is the mechanics of a cross-shard transfer: the server
// keeps its global ID, the source cluster keeps a nil hole at its slot.
// Like Move-to-inference, detaching a server that still runs training work
// is refused: the caller must preempt or scale in first.
func (c *Cluster) Detach(id int) (*Server, error) {
	s := c.Server(id)
	if s == nil {
		return nil, fmt.Errorf("cluster: detach unknown server %d", id)
	}
	if s.Used() > 0 {
		return nil, fmt.Errorf("cluster: server %d still runs %d GPUs, cannot detach", id, s.Used())
	}
	c.leavePool(s.Pool, s)
	s.owner = nil
	c.servers[id-c.firstID] = nil
	c.n--
	return s, nil
}

// Adopt attaches a server detached from another cluster into pool p. The
// server keeps its global ID; IDs below the cluster's FirstID cannot be
// hosted (shard ID ranges ascend, and loans only ever park a server in a
// borrower whose range the ID maps into or return it home).
func (c *Cluster) Adopt(s *Server, p Pool) error {
	if s.owner != nil {
		return fmt.Errorf("cluster: adopt server %d still owned by another cluster", s.ID)
	}
	if s.ID < c.firstID {
		return fmt.Errorf("cluster: adopt server %d below first ID %d", s.ID, c.firstID)
	}
	if (p == PoolInference || p == PoolQuarantine) && s.Used() > 0 {
		return fmt.Errorf("cluster: server %d still runs %d GPUs of training work, cannot adopt into %v", s.ID, s.Used(), p)
	}
	s.Pool = p
	c.addServer(s)
	return nil
}

// PoolServers returns a copy of the servers currently in pool p, sorted by
// ID. The copy is safe to hold across pool moves; use EachPoolServer on hot
// paths that only iterate.
func (c *Cluster) PoolServers(p Pool) []*Server {
	return append([]*Server(nil), c.pools[p]...)
}

// EachPoolServer calls fn for every server in pool p in ascending ID order,
// stopping early when fn returns false. It iterates the live index without
// allocating: the callback may change allocations (scale-ins, releases) but
// must not move servers between pools — collect IDs first and move after
// iterating.
func (c *Cluster) EachPoolServer(p Pool, fn func(*Server) bool) {
	for _, s := range c.pools[p] {
		if !fn(s) {
			return
		}
	}
}

// PoolSize returns the number of servers in pool p.
func (c *Cluster) PoolSize(p Pool) int { return len(c.pools[p]) }

// Move transfers a server between pools, implementing the whitelist update
// of §6. Moving a server out of the training scheduler's control
// (PoolOnLoan -> PoolInference, or into quarantine after a crash) requires
// it to be empty: the caller must have preempted or scaled in its jobs
// first.
func (c *Cluster) Move(id int, to Pool) error {
	s := c.Server(id)
	if s == nil {
		return fmt.Errorf("cluster: move unknown server %d", id)
	}
	if s.Pool == to {
		return nil
	}
	if (to == PoolInference || to == PoolQuarantine) && s.Used() > 0 {
		return fmt.Errorf("cluster: server %d still runs %d GPUs of training work, cannot move to %v", id, s.Used(), to)
	}
	c.leavePool(s.Pool, s)
	s.Pool = to
	c.enterPool(to, s)
	return nil
}

// SchedulableServers returns the servers the training scheduler may place
// workers on: the training pool plus the on-loan pool, sorted by ID. The
// two pool indexes are already ID-ordered, so this is a merge, not a sort.
func (c *Cluster) SchedulableServers() []*Server {
	t, l := c.pools[PoolTraining], c.pools[PoolOnLoan]
	out := make([]*Server, 0, len(t)+len(l))
	for len(t) > 0 && len(l) > 0 {
		if t[0].ID < l[0].ID {
			out = append(out, t[0])
			t = t[1:]
		} else {
			out = append(out, l[0])
			l = l[1:]
		}
	}
	out = append(out, t...)
	return append(out, l...)
}

// FreeGPUs returns the number of free GPUs in pool p. O(1).
func (c *Cluster) FreeGPUs(p Pool) int { return c.freeCnt[p] }

// UsedGPUs returns the number of allocated GPUs in pool p. O(1).
func (c *Cluster) UsedGPUs(p Pool) int { return c.usedCnt[p] }

// TotalGPUs returns the number of GPUs in pool p. O(1).
func (c *Cluster) TotalGPUs(p Pool) int { return c.totalCnt[p] }

// FlexibleGPUs returns the GPUs held by flexible (elastic surplus) workers
// in pool p — the capacity §5.2 counts as available for resizing. O(1).
func (c *Cluster) FlexibleGPUs(p Pool) int { return c.flexCnt[p] }

// BusyServers returns the number of pool p's servers hosting at least one
// allocated GPU. O(1).
func (c *Cluster) BusyServers(p Pool) int { return len(c.pools[p]) - c.emptyCnt[p] }

// NormalizedFreeCapacity returns free GPUs in the training scheduler's
// pools weighted by GPU speed, the normalization §5.2 applies to on-loan
// inference GPUs when computing resource capacity. O(GPU types).
func (c *Cluster) NormalizedFreeCapacity() float64 {
	t := 0.0
	for _, p := range []Pool{PoolTraining, PoolOnLoan} {
		for g := GPUType(0); g < numGPUTypes; g++ {
			t += float64(c.freeByType[p][g]) * g.Speed()
		}
	}
	return t
}

// Fragmentation counts schedulable servers that are partially allocated
// (neither empty nor full) — the fragmentation the BFD placement of §5.3
// tries to minimize. O(1).
func (c *Cluster) Fragmentation() int {
	return c.partialCnt[PoolTraining] + c.partialCnt[PoolOnLoan]
}

// BestFit returns the best-fit server in pool p for one worker that needs
// need(gpu) GPUs on a server of type gpu, or nil. Preference order matches
// the placement tie-break contract (place.fitBetter): non-empty servers
// before empty ones, then least free GPUs, then lowest ID. fixed, when
// non-nil, restricts candidates to one GPU type; exclude lists servers that
// must not be used.
//
// The lookup walks the free-count bucket index upward from the smallest
// possibly-fitting bucket: the first eligible non-empty server found is the
// exact fitBetter winner (buckets ascend by free count and are ID-ordered),
// and the first eligible empty server is remembered as the fallback. With
// B = GPUs per server distinct free counts this is O(B + matches scanned)
// instead of a full pool scan.
func (c *Cluster) BestFit(p Pool, need func(GPUType) int, fixed *GPUType, exclude map[int]struct{}) *Server {
	minNeed := -1
	if fixed != nil {
		if c.srvByType[p][*fixed] == 0 {
			return nil
		}
		minNeed = need(*fixed)
	} else {
		for g := GPUType(0); g < numGPUTypes; g++ {
			if c.srvByType[p][g] == 0 {
				continue
			}
			if n := need(g); minNeed < 0 || n < minNeed {
				minNeed = n
			}
		}
	}
	if minNeed < 0 {
		return nil // empty pool
	}
	if minNeed == 0 {
		minNeed = 1 // a worker occupies at least one GPU
	}
	var bestEmpty *Server
	for f := minNeed; f < len(c.buckets[p]); f++ {
		for _, s := range c.buckets[p][f] {
			if fixed != nil && s.GPU != *fixed {
				continue
			}
			if s.free < need(s.GPU) {
				continue
			}
			if _, excluded := exclude[s.ID]; excluded {
				continue
			}
			if s.free < s.NumGPUs {
				return s // non-empty: beats every empty server and any higher bucket
			}
			if bestEmpty == nil {
				bestEmpty = s
			}
		}
	}
	return bestEmpty
}

// CheckInvariants verifies internal consistency and returns the first
// violation found. It is used by tests and the simulator's debug mode.
// Index/counter agreement with a from-scratch recount is checked separately
// by AuditIndexes; the invariant audit layer runs both.
func (c *Cluster) CheckInvariants() error {
	seen := make(map[int]Pool)
	for p := Pool(0); p < numPools; p++ {
		prev := -1
		for _, s := range c.pools[p] {
			if s.Pool != p {
				return fmt.Errorf("server %d indexed under %v but Pool=%v", s.ID, p, s.Pool)
			}
			if s.ID <= prev {
				return fmt.Errorf("pool %v index out of ID order at server %d", p, s.ID)
			}
			prev = s.ID
			if dup, ok := seen[s.ID]; ok {
				return fmt.Errorf("server %d in two pools: %v and %v", s.ID, dup, p)
			}
			seen[s.ID] = p
		}
	}
	attached := 0
	for _, s := range c.servers {
		if s == nil {
			continue
		}
		attached++
		if _, ok := seen[s.ID]; !ok {
			return fmt.Errorf("server %d missing from pool index", s.ID)
		}
		sum, flexSum := 0, 0
		for id, g := range s.alloc {
			if g <= 0 {
				return fmt.Errorf("server %d: job %d holds %d GPUs", s.ID, id, g)
			}
			if f := s.flexible[id]; f > g {
				return fmt.Errorf("server %d: job %d flexible %d > alloc %d", s.ID, id, f, g)
			}
			sum += g
		}
		for id, f := range s.flexible {
			if f <= 0 {
				return fmt.Errorf("server %d: job %d flexible entry %d", s.ID, id, f)
			}
			flexSum += f
		}
		if sum+s.free != s.NumGPUs {
			return fmt.Errorf("server %d: alloc %d + free %d != %d GPUs", s.ID, sum, s.free, s.NumGPUs)
		}
		if flexSum != s.flexTotal {
			return fmt.Errorf("server %d: flexible sum %d != cached total %d", s.ID, flexSum, s.flexTotal)
		}
	}
	if attached != c.n {
		return fmt.Errorf("%d attached servers, counter says %d", attached, c.n)
	}
	if len(seen) != attached {
		return fmt.Errorf("%d servers in pool indexes, %d attached", len(seen), attached)
	}
	return nil
}

// AuditIndexes recounts every incrementally-maintained counter and index
// from scratch — per-pool free/used/total/flexible GPUs, empty/partial
// server counts, per-type splits, and free-count bucket membership — and
// returns the first disagreement with the maintained values. It is the
// equivalence oracle keeping the maintain-on-write fast paths honest: the
// invariant audit layer calls it after every audited transition, so any
// write path that forgets to update an index fails the whole test suite at
// the transition that introduced the drift.
func (c *Cluster) AuditIndexes() error {
	for p := Pool(0); p < numPools; p++ {
		var free, used, total, flex, empty, partial int
		var byType, freeType [numGPUTypes]int
		for _, s := range c.pools[p] {
			free += s.free
			used += s.Used()
			total += s.NumGPUs
			flex += s.flexTotal
			byType[s.GPU]++
			freeType[s.GPU] += s.free
			switch u := s.Used(); {
			case u == 0:
				empty++
			case u < s.NumGPUs:
				partial++
			}
		}
		if free != c.freeCnt[p] || used != c.usedCnt[p] || total != c.totalCnt[p] || flex != c.flexCnt[p] {
			return fmt.Errorf("pool %v: counters free/used/total/flex = %d/%d/%d/%d, recount = %d/%d/%d/%d",
				p, c.freeCnt[p], c.usedCnt[p], c.totalCnt[p], c.flexCnt[p], free, used, total, flex)
		}
		if empty != c.emptyCnt[p] || partial != c.partialCnt[p] {
			return fmt.Errorf("pool %v: empty/partial counters = %d/%d, recount = %d/%d",
				p, c.emptyCnt[p], c.partialCnt[p], empty, partial)
		}
		if byType != c.srvByType[p] || freeType != c.freeByType[p] {
			return fmt.Errorf("pool %v: per-type counters %v/%v, recount %v/%v",
				p, c.srvByType[p], c.freeByType[p], byType, freeType)
		}
		inBuckets := 0
		for f, bucket := range c.buckets[p] {
			prev := -1
			for _, s := range bucket {
				if s.free != f {
					return fmt.Errorf("pool %v: server %d with %d free GPUs filed in bucket %d", p, s.ID, s.free, f)
				}
				if s.Pool != p {
					return fmt.Errorf("pool %v bucket %d: server %d belongs to pool %v", p, f, s.ID, s.Pool)
				}
				if s.ID <= prev {
					return fmt.Errorf("pool %v bucket %d out of ID order at server %d", p, f, s.ID)
				}
				prev = s.ID
			}
			inBuckets += len(bucket)
		}
		if inBuckets != len(c.pools[p]) {
			return fmt.Errorf("pool %v: %d servers in buckets, %d in pool index", p, inBuckets, len(c.pools[p]))
		}
	}
	return nil
}
