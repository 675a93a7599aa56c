package main

import (
	"dbisim/internal/system"
)

// setupRepeats is how many fresh processes a run starts to measure
// set-up time; setup_s is their median.
const setupRepeats = 9

// setupProbes starts n fresh child processes in the given set-up mode
// and returns each one's time from process start to ready.
func setupProbes(kind string, p params, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		var rep setupReport
		if _, err := spawn(kind, p, false, &rep); err != nil {
			return nil, err
		}
		out = append(out, rep.SetupS)
	}
	return out, nil
}

// workCounts are a machine's exact simulated work counts since power-on.
type workCounts struct {
	Fired         uint64 `json:"fired"`
	TagLookups    uint64 `json:"tag_lookups"`
	Bypasses      uint64 `json:"bypasses"`
	DBIEvictions  uint64 `json:"dbi_evictions"`
	DRAMReads     uint64 `json:"dram_reads"`
	DRAMWrites    uint64 `json:"dram_writes"`
	DRAMActivates uint64 `json:"dram_activates"`
	DRAMDrains    uint64 `json:"dram_drains"`
}

func countsOf(s *system.System) workCounts {
	w := workCounts{
		Fired:         s.Eng.Fired(),
		TagLookups:    s.LLC.TagLookups(),
		Bypasses:      s.LLC.Stat.Bypasses.Value(),
		DRAMReads:     s.Mem.Stat.Reads.Value(),
		DRAMWrites:    s.Mem.Stat.Writes.Value(),
		DRAMActivates: s.Mem.Stat.Activates.Value(),
		DRAMDrains:    s.Mem.Stat.DrainsStarted.Value(),
	}
	if s.LLC.DBI != nil {
		w.DBIEvictions = s.LLC.DBI.Stat.Evictions.Value()
	}
	return w
}

func (w *workCounts) add(o workCounts) {
	w.Fired += o.Fired
	w.TagLookups += o.TagLookups
	w.Bypasses += o.Bypasses
	w.DBIEvictions += o.DBIEvictions
	w.DRAMReads += o.DRAMReads
	w.DRAMWrites += o.DRAMWrites
	w.DRAMActivates += o.DRAMActivates
	w.DRAMDrains += o.DRAMDrains
}

// sub returns the counts accumulated since an earlier reading.
func (w workCounts) sub(o workCounts) workCounts {
	return workCounts{
		Fired:         w.Fired - o.Fired,
		TagLookups:    w.TagLookups - o.TagLookups,
		Bypasses:      w.Bypasses - o.Bypasses,
		DBIEvictions:  w.DBIEvictions - o.DBIEvictions,
		DRAMReads:     w.DRAMReads - o.DRAMReads,
		DRAMWrites:    w.DRAMWrites - o.DRAMWrites,
		DRAMActivates: w.DRAMActivates - o.DRAMActivates,
		DRAMDrains:    w.DRAMDrains - o.DRAMDrains,
	}
}

func setCounts(o *outcome, w workCounts) {
	o.set("event.fired", float64(w.Fired))
	o.set("llc.tag_lookups", float64(w.TagLookups))
	o.set("llc.bypasses", float64(w.Bypasses))
	o.set("dbi.evictions", float64(w.DBIEvictions))
	o.set("dram.reads", float64(w.DRAMReads))
	o.set("dram.writes", float64(w.DRAMWrites))
	o.set("dram.activates", float64(w.DRAMActivates))
	o.set("dram.drains", float64(w.DRAMDrains))
}

// setLayers reports the folded profile as host ns per simulated event.
func setLayers(o *outcome, lp layerProfile, events uint64) {
	o.set("tracing.profile_samples", float64(lp.Samples))
	if events == 0 {
		return
	}
	for layer, ns := range lp.NS {
		o.set(layer+".ns_per_event", ns/float64(events))
	}
}
