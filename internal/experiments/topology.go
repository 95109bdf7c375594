package experiments

import (
	"fmt"

	"nxzip/internal/corpus"
	"nxzip/internal/nx"
	"nxzip/internal/topology"
)

// TopologyTargetGBs is the paper's aggregate-rate claim for the maximal
// z15 configuration (claim C6): 5 CPC drawers x 4 CP chips, each with one
// on-chip zEDC unit, approaching 280 GB/s. The figure is reconstructed
// from the paper's text, not measured on hardware.
const TopologyTargetGBs = 280.0

// TopologyPoint is one measured configuration of the topology sweep —
// the JSON shape `nxbench -json` emits.
type TopologyPoint struct {
	Devices      int     `json:"devices"`
	Drawers      int     `json:"drawers,omitempty"` // set when devices is a whole drawer count
	GBs          float64 `json:"gbs"`
	PerDeviceGBs float64 `json:"per_device_gbs"`
	Scaling      float64 `json:"scaling"`    // rate / single-device rate
	Efficiency   float64 `json:"efficiency"` // scaling / devices
}

// topologyChunksPerDevice x topologyChunkSize is the work each device
// receives in the sweep; 1 MiB requests sit on the flat part of the
// throughput-vs-size curve (E2), so the sweep measures scaling, not
// per-request overhead.
const (
	topologyChunksPerDevice = 4
	topologyChunkSize       = 1 << 20
)

// deviceBusyTime returns the wall-clock the device's engines were busy,
// at the engine clock. Engines within a device run in parallel behind
// the shared FIFO, but the sweep's serial submission keeps one request
// in flight per device, so summing engine busy cycles is exact here.
func deviceBusyTime(d *nx.Device) float64 {
	var busy int64
	for i := 0; i < d.EngineCount(); i++ {
		e, err := d.EngineAt(i)
		if err != nil {
			panic(err) // unreachable: i < EngineCount
		}
		busy += e.Counters().BusyCycles
	}
	return d.PipelineConfig().Time(busy).Seconds()
}

// measureTopology drives one node configuration through the real
// dispatch layer: a node of `devices` z15 units is built, every chunk is
// routed by the policy (device picked before buffers map — VAs are
// per-device), and the aggregate rate is total bytes over the makespan,
// the busiest device's engine-busy time. Chunks are distinct corpus
// slices, so per-device work varies slightly and the efficiency number
// is honest rather than definitionally 1.0.
func measureTopology(devices int, policy topology.Policy) (totalBytes int, makespan float64) {
	specs := make([]topology.DeviceSpec, devices)
	for i := range specs {
		specs[i] = topology.DeviceSpec{Config: nx.Z15Device()}
	}
	node := topology.New(topology.Custom(fmt.Sprintf("z15-%ddev", devices), specs...), policy)
	nctx := node.OpenContext(1)
	defer nctx.Close()

	chunks := devices * topologyChunksPerDevice
	src := corpus.Generate(corpus.Text, chunks*topologyChunkSize, Seed)
	for i := 0; i < chunks; i++ {
		chunk := src[i*topologyChunkSize : (i+1)*topologyChunkSize]
		d, err := nctx.PickIndexCodec(nx.Codecs(nx.CodecDeflate))
		if err == nil {
			nctx.AcquireIndex(d)
			_, _, err = nctx.At(d).Compress(chunk, nx.FCCompressDHT, nx.WrapGzip, true)
			nctx.ReleaseIndex(d, err)
		}
		if err != nil {
			panic(fmt.Sprintf("E18 %d devices: %v", devices, err))
		}
	}

	for i := 0; i < node.Size(); i++ {
		if t := deviceBusyTime(node.Device(i)); t > makespan {
			makespan = t
		}
	}
	return chunks * topologyChunkSize, makespan
}

// TopologyScaling runs the default sweep: a single z15 unit, then whole
// CPC drawers up to the maximal five (4, 8, 12, 16, 20 zEDC units),
// dispatched round-robin.
func TopologyScaling() (*Table, []TopologyPoint) {
	return TopologyScalingCustom([]int{1, 4, 8, 12, 16, 20}, topology.RoundRobin())
}

// TopologyScalingCustom sweeps explicit device counts under an explicit
// dispatch policy, returning both the rendered table and the raw points
// (for -json export).
func TopologyScalingCustom(deviceCounts []int, policy topology.Policy) (*Table, []TopologyPoint) {
	t := &Table{
		ID:     "E18",
		Title:  "aggregate rate vs device count through the dispatch layer (claim C6: 280 GB/s)",
		Header: []string{"devices", "drawers", "aggregate", "per-device", "scaling", "efficiency"},
	}
	var (
		points []TopologyPoint
		base   float64
	)
	for _, n := range deviceCounts {
		bytes, makespan := measureTopology(n, policy)
		rate := float64(bytes) / makespan
		if base == 0 {
			base = rate / float64(n)
		}
		p := TopologyPoint{
			Devices:      n,
			GBs:          rate / 1e9,
			PerDeviceGBs: rate / float64(n) / 1e9,
			Scaling:      rate / base,
			Efficiency:   rate / base / float64(n),
		}
		drawerCell := "-"
		if n%z15DrawerChips == 0 {
			p.Drawers = n / z15DrawerChips
			drawerCell = fmt.Sprintf("%d", p.Drawers)
		}
		points = append(points, p)
		t.AddRow(fmt.Sprintf("%d", n), drawerCell, gbs(rate), gbs(rate/float64(n)),
			f2(p.Scaling)+"x", f2(p.Efficiency))
	}
	t.Note("policy: %s; makespan = busiest device's engine-busy time; chunks are distinct 1 MiB corpus slices", policy.Name())
	t.Note("paper claim C6 (reconstructed): maximal z15 (5 drawers, 20 zEDC units) approaches %.0f GB/s aggregate", TopologyTargetGBs)
	return t, points
}

// z15DrawerChips mirrors the topology package's CP-chips-per-drawer
// constant for drawer labeling in the table.
const z15DrawerChips = 4

// E18TopologyScaling is the table-only entry point All uses.
func E18TopologyScaling() *Table {
	t, _ := TopologyScaling()
	return t
}
