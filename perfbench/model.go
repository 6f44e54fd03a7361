package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// The model is the benchmark's own account of one tenant, kept apart from
// the program under test: it shares no code with internal/registry,
// internal/vuln or internal/diversity. Every response is compared with
// what the model says the paper's quantities must be (Yu, DSN 2023,
// Sec. II-C):
//
//   - entropy in bits over the power share of each configuration, and the
//     largest share;
//   - a vulnerability reaches a replica when the replica's component of the
//     vulnerability's class has the vulnerability's product (and version,
//     when one is given), from disclosure until PatchAt plus the replica's
//     patch lag;
//   - a vulnerability of severity s < 1 takes the ⌈s·m⌉ of its m reachable
//     replicas with the most power, name ascending among equals;
//   - totalFraction counts each compromised replica's power once.
//
// Severities are kept to binary fractions (1, 3/4, 1/2, 1/4) so s·m is
// exact and the ceiling needs no rounding guard.

// comp is one component of a configuration.
type comp struct {
	Class   string `json:"class"`
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// mReplica is a replica as the model sees it.
type mReplica struct {
	id    string
	comps []comp
	power float64
	lag   time.Duration
	key   string // canonical(comps)

	mark uint64 // dedup stamp for one evaluation
}

// canonical is the configuration's identity: components by class name.
func canonical(comps []comp) string {
	parts := make([]string, len(comps))
	for i, c := range comps {
		parts[i] = c.Class + "/" + c.Name + "@" + c.Version
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

// mVuln is one disclosed vulnerability.
type mVuln struct {
	ID        string
	Class     string
	Product   string
	Version   string
	Disclosed time.Duration
	PatchAt   time.Duration
	Severity  float64
}

// model is one tenant: replicas, vulnerabilities and the virtual now.
type model struct {
	replicas map[string]*mReplica
	vulns    []mVuln
	now      time.Duration

	// byProduct lists the replicas per "class/name", sorted by attack
	// priority (power descending, id ascending) when clean.
	byProduct map[string][]*mReplica
	dirty     map[string]bool
	stamp     uint64
}

func newModel() *model {
	return &model{
		replicas:  make(map[string]*mReplica),
		byProduct: make(map[string][]*mReplica),
		dirty:     make(map[string]bool),
	}
}

func productKey(class, name string) string { return class + "/" + name }

func (m *model) index(r *mReplica) {
	for _, c := range r.comps {
		k := productKey(c.Class, c.Name)
		m.byProduct[k] = append(m.byProduct[k], r)
		m.dirty[k] = true
	}
}

func (m *model) unindex(r *mReplica) {
	for _, c := range r.comps {
		k := productKey(c.Class, c.Name)
		list := m.byProduct[k]
		for i, x := range list {
			if x == r {
				m.byProduct[k] = append(list[:i], list[i+1:]...)
				break
			}
		}
		m.dirty[k] = true
	}
}

func (m *model) join(id string, comps []comp, power float64, lag time.Duration) error {
	if _, ok := m.replicas[id]; ok {
		return fmt.Errorf("model: duplicate replica %s", id)
	}
	r := &mReplica{id: id, comps: comps, power: power, lag: lag, key: canonical(comps)}
	m.replicas[id] = r
	m.index(r)
	return nil
}

func (m *model) leave(id string) error {
	r, ok := m.replicas[id]
	if !ok {
		return fmt.Errorf("model: unknown replica %s", id)
	}
	m.unindex(r)
	delete(m.replicas, id)
	return nil
}

func (m *model) setPower(id string, power float64) error {
	r, ok := m.replicas[id]
	if !ok {
		return fmt.Errorf("model: unknown replica %s", id)
	}
	r.power = power
	for _, c := range r.comps {
		m.dirty[productKey(c.Class, c.Name)] = true
	}
	return nil
}

func (m *model) migrate(id string, comps []comp) error {
	r, ok := m.replicas[id]
	if !ok {
		return fmt.Errorf("model: unknown replica %s", id)
	}
	m.unindex(r)
	r.comps, r.key = comps, canonical(comps)
	m.index(r)
	return nil
}

func (m *model) disclose(v mVuln) { m.vulns = append(m.vulns, v) }

// sorted returns the product's replicas in attack-priority order.
func (m *model) sorted(key string) []*mReplica {
	list := m.byProduct[key]
	if m.dirty[key] {
		sort.Slice(list, func(i, j int) bool {
			if list[i].power != list[j].power {
				return list[i].power > list[j].power
			}
			return list[i].id < list[j].id
		})
		delete(m.dirty, key)
	}
	return list
}

// diversity is the expected diversity half of a response.
type diversity struct {
	Members  int
	Support  int
	Entropy  float64
	MaxShare float64
}

func (m *model) diversity() diversity {
	weights := make(map[string]float64)
	var total float64
	for _, r := range m.replicas {
		weights[r.key] += r.power
		total += r.power
	}
	d := diversity{Members: len(m.replicas)}
	for _, w := range weights {
		if w <= 0 {
			continue
		}
		d.Support++
		p := w / total
		d.Entropy -= p * math.Log2(p)
		if p > d.MaxShare {
			d.MaxShare = p
		}
	}
	return d
}

// injection is the expected fault picture at one instant.
type injection struct {
	Total float64
	// Faults maps each vulnerability with a non-empty take to its
	// compromised replica ids, sorted.
	Faults map[string][]string
}

func (m *model) totalPower() float64 {
	var total float64
	for _, r := range m.replicas {
		total += r.power
	}
	return total
}

// inject evaluates instant t. With names false it only sums the
// deduplicated power, which is what the brute-force worst needs.
func (m *model) inject(t time.Duration, total float64, names bool) injection {
	m.stamp++
	var inj injection
	if names {
		inj.Faults = make(map[string][]string)
	}
	var dedup float64
	var open []*mReplica
	for _, v := range m.vulns {
		if t < v.Disclosed {
			continue
		}
		open = open[:0]
		for _, r := range m.sorted(productKey(v.Class, v.Product)) {
			if v.Version != "" && !hasVersion(r, v.Class, v.Version) {
				continue
			}
			if t < v.PatchAt+r.lag {
				open = append(open, r)
			}
		}
		if len(open) == 0 {
			continue
		}
		take := int(math.Ceil(v.Severity * float64(len(open))))
		if take < 1 {
			take = 1
		}
		var ids []string
		for _, r := range open[:take] {
			if names {
				ids = append(ids, r.id)
			}
			if r.mark != m.stamp {
				r.mark = m.stamp
				dedup += r.power
			}
		}
		if names {
			sort.Strings(ids)
			inj.Faults[v.ID] = ids
		}
	}
	if total > 0 {
		inj.Total = dedup / total
	}
	return inj
}

func hasVersion(r *mReplica, class, version string) bool {
	for _, c := range r.comps {
		if c.Class == class {
			return c.Version == version
		}
	}
	return false
}

// criticalInstants lists every instant in [0, horizon] where the fault
// picture can change: 0, each disclosure and each reachable replica's
// window close.
func (m *model) criticalInstants(horizon time.Duration) []time.Duration {
	set := map[time.Duration]bool{0: true}
	for _, v := range m.vulns {
		if v.Disclosed <= horizon {
			set[v.Disclosed] = true
		}
		for _, r := range m.byProduct[productKey(v.Class, v.Product)] {
			if c := v.PatchAt + r.lag; c <= horizon && c >= 0 {
				set[c] = true
			}
		}
	}
	out := make([]time.Duration, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// bruteWorst is the largest deduplicated fraction over every critical
// instant of [0, horizon].
func (m *model) bruteWorst(horizon time.Duration) float64 {
	total := m.totalPower()
	best := 0.0
	for _, t := range m.criticalInstants(horizon) {
		if f := m.inject(t, total, false).Total; f > best {
			best = f
		}
	}
	return best
}
