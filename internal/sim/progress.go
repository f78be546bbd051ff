package sim

// Progress is a cheap point-in-time summary of a running engine: the
// counters the engine already maintains, copied without touching per-packet
// state. It is what long-running frontends (cmd/hotpotatod's NDJSON job
// streams in particular) emit as per-epoch progress, so it is JSON-tagged.
type Progress struct {
	// Time is the current step index.
	Time int `json:"time"`
	// Live is the number of packets still in the network.
	Live int `json:"live"`
	// Delivered is the number of packets that reached their destinations.
	Delivered int `json:"delivered"`
	// Dropped and Absorbed count packets removed undelivered by fault
	// degradation (see Result for the split).
	Dropped  int `json:"dropped"`
	Absorbed int `json:"absorbed"`
	// Total is the number of packets injected so far (batch instances: the
	// whole problem).
	Total int `json:"total"`
	// TotalHops and TotalDeflections are the cumulative movement counters.
	TotalHops        int64 `json:"total_hops"`
	TotalDeflections int64 `json:"total_deflections"`
	// MaxNodeLoad is the largest per-node packet count observed so far.
	MaxNodeLoad int `json:"max_node_load"`
}

// Progress returns the engine's current progress counters. It is valid
// between steps (i.e. from observers and between Step calls) and costs a
// handful of loads, so sampling it every step is fine.
func (e *Engine) Progress() Progress {
	return Progress{
		Time:             e.time,
		Live:             e.live,
		Delivered:        len(e.packets) - e.live - e.dropped - e.absorbed,
		Dropped:          e.dropped,
		Absorbed:         e.absorbed,
		Total:            len(e.packets),
		TotalHops:        e.totalHops,
		TotalDeflections: e.totalDeflections,
		MaxNodeLoad:      e.maxNodeLoad,
	}
}
