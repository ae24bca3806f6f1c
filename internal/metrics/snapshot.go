package metrics

// Snapshot is a point-in-time copy of every metric in a registry,
// JSON-encodable as-is. Sub produces deltas between two snapshots, so a
// monitor polling /metrics.json can report per-interval rates.
type Snapshot struct {
	Counters   []SeriesValue    `json:"counters,omitempty"`
	Gauges     []SeriesValue    `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// SeriesValue is one counter or gauge series.
type SeriesValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistogramValue is one histogram series.
type HistogramValue struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets []BucketValue     `json:"buckets,omitempty"` // zero buckets elided
	// PerShardCount / PerShardSum are per-shard breakdowns, present when
	// the snapshot was taken with shard detail enabled.
	PerShardCount []int64 `json:"perShardCount,omitempty"`
	PerShardSum   []int64 `json:"perShardSum,omitempty"`
}

// BucketValue is one non-empty histogram bucket: the count of
// observations v with Le/2 < v <= Le (Le == -1 means +Inf).
type BucketValue struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// SnapshotOption tunes Snapshot.
type SnapshotOption func(*snapshotConfig)

type snapshotConfig struct {
	perShard bool
}

// WithPerShard includes histograms' per-shard (per-rank) breakdowns in
// the snapshot.
func WithPerShard() SnapshotOption {
	return func(c *snapshotConfig) { c.perShard = true }
}

// Snapshot copies every metric's current value, in registration order.
// A nil registry yields a zero snapshot.
func (r *Registry) Snapshot(opts ...SnapshotOption) Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	var cfg snapshotConfig
	for _, o := range opts {
		o(&cfg)
	}
	r.mu.Lock()
	order := append([]family(nil), r.order...)
	counters := make(map[string]*funcSeries, len(r.counters))
	for id, c := range r.counters {
		counters[id] = c
	}
	gauges := make(map[string]*funcSeries, len(r.gauges))
	for id, g := range r.gauges {
		gauges[id] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for id, h := range r.histograms {
		histograms[id] = h
	}
	r.mu.Unlock()

	seriesValue := func(c *funcSeries) SeriesValue {
		return SeriesValue{Name: c.name, Labels: labelMap(c.labels), Value: c.fn()}
	}
	for _, f := range order {
		switch f.kind {
		case "counter":
			snap.Counters = append(snap.Counters, seriesValue(counters[f.id]))
		case "gauge":
			snap.Gauges = append(snap.Gauges, seriesValue(gauges[f.id]))
		case "histogram":
			h := histograms[f.id]
			hv := HistogramValue{Name: h.name, Labels: labelMap(h.labels), Count: h.Count(), Sum: h.Sum()}
			buckets := h.Buckets()
			for i, c := range buckets {
				if c != 0 {
					hv.Buckets = append(hv.Buckets, BucketValue{Le: BucketBound(i), Count: c})
				}
			}
			if cfg.perShard {
				hv.PerShardCount = h.PerShardCount()
				hv.PerShardSum = h.PerShardSum()
			}
			snap.Histograms = append(snap.Histograms, hv)
		}
	}
	return snap
}

// Sub returns the element-wise difference s - prev, matching series by
// name and labels. Series absent from prev pass through unchanged;
// series absent from s are dropped. Gauges keep their current value
// (deltas of instantaneous values are rarely meaningful).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var out Snapshot
	prevCounters := make(map[string]int64, len(prev.Counters))
	for _, c := range prev.Counters {
		prevCounters[seriesKey(c.Name, c.Labels)] = c.Value
	}
	for _, c := range s.Counters {
		c.Value -= prevCounters[seriesKey(c.Name, c.Labels)]
		out.Counters = append(out.Counters, c)
	}
	out.Gauges = append(out.Gauges, s.Gauges...)
	prevHist := make(map[string]HistogramValue, len(prev.Histograms))
	for _, h := range prev.Histograms {
		prevHist[seriesKey(h.Name, h.Labels)] = h
	}
	for _, h := range s.Histograms {
		p, ok := prevHist[seriesKey(h.Name, h.Labels)]
		if ok {
			h.Count -= p.Count
			h.Sum -= p.Sum
			pb := make(map[int64]int64, len(p.Buckets))
			for _, b := range p.Buckets {
				pb[b.Le] = b.Count
			}
			var buckets []BucketValue
			for _, b := range h.Buckets {
				if d := b.Count - pb[b.Le]; d != 0 {
					buckets = append(buckets, BucketValue{Le: b.Le, Count: d})
				}
			}
			h.Buckets = buckets
		}
		h.PerShardCount, h.PerShardSum = nil, nil
		out.Histograms = append(out.Histograms, h)
	}
	return out
}

func seriesKey(name string, labels map[string]string) string {
	ls := make([]Label, 0, len(labels))
	for k, v := range labels {
		ls = append(ls, Label{Key: k, Value: v})
	}
	return seriesID(name, ls)
}
