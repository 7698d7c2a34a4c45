package tango

// MetricsText renders a snapshot through appendServerMetrics, the function
// GET /metrics runs, so the external golden test pins the served bytes.
func MetricsText(st ServerStats) string {
	var w promWriter
	appendServerMetrics(&w, st)
	return w.b.String()
}
