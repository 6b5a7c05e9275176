// Package obs is a testdata stand-in for camps/internal/obs with the
// metric types and registry surface the statsreg analyzer recognizes.
package obs

type Counter struct{ v uint64 }

func (c *Counter) Inc()          { c.v++ }
func (c *Counter) Add(d uint64)  { c.v += d }
func (c *Counter) Value() uint64 { return c.v }

type Gauge struct{ v float64 }

func (g *Gauge) Set(v float64)  { g.v = v }
func (g *Gauge) Value() float64 { return g.v }

type Histogram struct{ n uint64 }

func NewHistogram() *Histogram { return &Histogram{} }

func (h *Histogram) Observe(v float64) { h.n++ }
func (h *Histogram) Count() uint64     { return h.n }

type Registry struct{}

func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) Counter(name string) *Counter     { return &Counter{} }
func (r *Registry) Gauge(name string) *Gauge         { return &Gauge{} }
func (r *Registry) Histogram(name string) *Histogram { return NewHistogram() }

func (r *Registry) CounterFunc(name string, fn func() uint64) {}
func (r *Registry) GaugeFunc(name string, fn func() float64)  {}
