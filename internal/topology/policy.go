package topology

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// Policy selects which device a request lands on. Pick receives the
// node (for load inspection), the submitting address-space id, and the
// node-context id of the submitter; it returns a device index. Pick
// must be safe for concurrent use.
type Policy interface {
	Name() string
	Pick(n *Node, pid int, ctx uint64) int
}

// RoundRobin returns the default policy: a node-global atomic cursor
// spreads consecutive requests evenly across devices regardless of who
// submits them. Exact balance, no load feedback.
func RoundRobin() Policy { return &roundRobin{} }

type roundRobin struct{ next atomic.Int64 }

func (p *roundRobin) Name() string { return "round-robin" }

func (p *roundRobin) Pick(n *Node, _ int, _ uint64) int {
	return int((p.next.Add(1) - 1) % int64(n.Size()))
}

// LeastLoaded returns the credit-aware policy: each pick scans the
// devices and takes the one with the smallest load — in-flight
// dispatched requests plus receive-FIFO occupancy (Node.Load), the
// model's view of how many credits the device is holding. The scan
// starts at a rotating offset so ties break fairly instead of always
// favouring device 0.
func LeastLoaded() Policy { return &leastLoaded{} }

type leastLoaded struct{ rot atomic.Int64 }

func (p *leastLoaded) Name() string { return "least-loaded" }

func (p *leastLoaded) Pick(n *Node, _ int, _ uint64) int {
	k := n.Size()
	start := int((p.rot.Add(1) - 1) % int64(k))
	best, bestLoad := start, n.Load(start)
	for j := 1; j < k; j++ {
		i := (start + j) % k
		if l := n.Load(i); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// Affinity returns the locality policy: every (pid, context) pair hashes
// to a stable device, so a context's requests always land on the same
// accelerator — its NMMU stays warm for that address space and streams
// never migrate. Different contexts scatter by hash; balance is
// statistical, not exact.
func Affinity() Policy { return affinity{} }

type affinity struct{}

func (affinity) Name() string { return "affinity" }

func (affinity) Pick(n *Node, pid int, ctx uint64) int {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(pid))
	binary.LittleEndian.PutUint64(b[8:16], ctx)
	h.Write(b[:])
	// FNV-1a's low bits cancel when pid and context id share their low
	// bytes (pid k, id k lands every context on one device); folding the
	// high half in spreads them.
	x := h.Sum64()
	return int((x ^ x>>32) % uint64(n.Size()))
}

// ParsePolicy maps a policy name (a -dispatch flag value) to a Policy:
// "round-robin"/"rr" (also ""), "least-loaded"/"ll", "affinity".
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "", "round-robin", "rr":
		return RoundRobin(), nil
	case "least-loaded", "ll":
		return LeastLoaded(), nil
	case "affinity":
		return Affinity(), nil
	}
	return nil, fmt.Errorf("topology: unknown dispatch policy %q (want round-robin, least-loaded or affinity)", name)
}
