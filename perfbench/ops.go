package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/monitord"
)

// The request side of the daemon workloads: seeded tenant populations,
// seeded operation sequences, and two transports that carry them — the
// loopback socket and an in-process ServeHTTP call.

// worstHorizon is the /worst query horizon. It is far beyond any virtual
// now a run reaches, so /worst covers the instant /assessment reports and
// /worst >= /assessment must hold.
const worstHorizon = 10 * 365 * 24 * time.Hour

var worstQuery = "?horizon=" + worstHorizon.String()

// product is one product of a component class and its versions.
type product struct {
	name     string
	versions []string
}

// serveMixedPool is the component inventory of serve-mixed tenants: an
// operating system, a crypto library and a runtime per replica.
var serveMixedPool = []struct {
	class    string
	products []product
}{
	{"operating-system", []product{{"linux", []string{"6.1", "5.15"}}, {"freebsd", []string{"14.0", "13.2"}}, {"openbsd", []string{"7.4"}}, {"netbsd", []string{"10.0"}}}},
	{"crypto-library", []product{{"openssl", []string{"3.0", "1.1.1"}}, {"boringssl", []string{"2024"}}, {"libsodium", []string{"1.0.19"}}, {"rustls", []string{"0.23"}}}},
	{"runtime", []product{{"go", []string{"1.23", "1.22"}}, {"jvm", []string{"21"}}, {"node", []string{"20"}}, {"cpython", []string{"3.12"}}}},
}

// severities are binary fractions, so the model's ⌈s·m⌉ is exact.
var severities = []float64{1, 0.75, 0.5, 0.25}

// op is one request of a workload, with everything the model and the
// direct-call replay need to apply it.
type op struct {
	route  string // assessment, worst, report, power, migrate, join, leave, disclose, advance
	tenant *tenantState
	rid    string
	power  float64
	comps  []comp
	lag    time.Duration
	vuln   mVuln
	by     time.Duration
	// brute asks for the /worst answer to be checked against the
	// model's brute-force maximum.
	brute bool
}

// tenantState is one tenant: its name, the model, and the ids the
// generator may pick from.
type tenantState struct {
	name  string
	m     *model
	ids   []string // current replica ids, in join order with swap-removes
	spec  monitord.TenantSpec
	watch bool // the SSE stream watches this tenant
}

func (t *tenantState) removeID(id string) {
	for i, x := range t.ids {
		if x == id {
			t.ids[i] = t.ids[len(t.ids)-1]
			t.ids = t.ids[:len(t.ids)-1]
			return
		}
	}
}

func compSpecs(comps []comp) []monitord.ComponentSpec {
	out := make([]monitord.ComponentSpec, len(comps))
	for i, c := range comps {
		out[i] = monitord.ComponentSpec{Class: c.Class, Name: c.Name, Version: c.Version}
	}
	return out
}

func vulnSpec(v mVuln) monitord.VulnSpec {
	return monitord.VulnSpec{
		ID: v.ID, Class: v.Class, Product: v.Product, Version: v.Version,
		Disclosed: monitord.Duration(v.Disclosed), PatchAt: monitord.Duration(v.PatchAt), Severity: v.Severity,
	}
}

// addReplica puts a replica into the model, the spec and the id list.
func (t *tenantState) addReplica(id string, comps []comp, power float64, lag time.Duration) {
	if err := t.m.join(id, comps, power, lag); err != nil {
		panic(err) // generator ids are unique by construction
	}
	t.ids = append(t.ids, id)
	t.spec.Replicas = append(t.spec.Replicas, monitord.ReplicaSpec{
		ID: id, Components: compSpecs(comps), Power: power, PatchLatency: monitord.Duration(lag),
	})
}

func (t *tenantState) addVuln(v mVuln) {
	t.m.disclose(v)
	t.spec.Vulns = append(t.spec.Vulns, vulnSpec(v))
}

// request renders the op as an HTTP request line and body.
func (o *op) request() (method, path string, body []byte) {
	base := "/tenants/" + o.tenant.name
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain structs always marshal
		}
		return b
	}
	switch o.route {
	case "assessment":
		return http.MethodGet, base + "/assessment", nil
	case "report":
		return http.MethodGet, base + "/report", nil
	case "worst":
		return http.MethodGet, base + "/worst" + worstQuery, nil
	case "power":
		p := o.power
		return http.MethodPatch, base + "/replicas/" + o.rid, enc(monitord.ReplicaPatch{Power: &p})
	case "migrate":
		return http.MethodPatch, base + "/replicas/" + o.rid, enc(monitord.ReplicaPatch{Components: compSpecs(o.comps)})
	case "join":
		return http.MethodPost, base + "/replicas", enc(monitord.ReplicaSpec{
			ID: o.rid, Components: compSpecs(o.comps), Power: o.power, PatchLatency: monitord.Duration(o.lag),
		})
	case "leave":
		return http.MethodDelete, base + "/replicas/" + o.rid, nil
	case "disclose":
		return http.MethodPost, base + "/vulns", enc(vulnSpec(o.vuln))
	case "advance":
		return http.MethodPost, base + "/advance", enc(monitord.AdvanceSpec{By: monitord.Duration(o.by)})
	}
	panic("unknown route " + o.route)
}

// wantStatus is the status a successful op answers with.
func (o *op) wantStatus() int {
	switch o.route {
	case "join", "disclose":
		return http.StatusCreated
	case "power", "migrate", "leave":
		return http.StatusNoContent
	}
	return http.StatusOK
}

// apply records a successful mutation in the model.
func (o *op) apply() error {
	t := o.tenant
	switch o.route {
	case "power":
		return t.m.setPower(o.rid, o.power)
	case "migrate":
		return t.m.migrate(o.rid, o.comps)
	case "join":
		t.ids = append(t.ids, o.rid)
		return t.m.join(o.rid, o.comps, o.power, o.lag)
	case "leave":
		t.removeID(o.rid)
		return t.m.leave(o.rid)
	case "disclose":
		t.m.disclose(o.vuln)
	case "advance":
		t.m.now += o.by
	}
	return nil
}

func (o *op) mutates() bool {
	switch o.route {
	case "assessment", "report", "worst":
		return false
	}
	return true
}

// transport carries one request and returns its status and body.
type transport interface {
	do(method, path string, body []byte) (int, []byte, error)
}

// loopback is one keep-alive HTTP/1.1 connection to the daemon. It
// writes each request and parses each response on the calling goroutine
// (net/http's client hands both to goroutines of its own), so the client
// adds as little scheduling as it can to what is measured.
type loopback struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	wbuf bytes.Buffer
}

func newLoopback(base string) *loopback {
	return &loopback{addr: strings.TrimPrefix(base, "http://")}
}

func (l *loopback) do(method, path string, body []byte) (int, []byte, error) {
	if l.conn == nil {
		c, err := net.Dial("tcp", l.addr)
		if err != nil {
			return 0, nil, err
		}
		l.conn, l.br = c, bufio.NewReader(c)
	}
	l.wbuf.Reset()
	fmt.Fprintf(&l.wbuf, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, l.addr)
	if body != nil {
		fmt.Fprintf(&l.wbuf, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	l.wbuf.WriteString("\r\n")
	l.wbuf.Write(body)
	if _, err := l.conn.Write(l.wbuf.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(l.br, nil)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

func (l *loopback) close() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}

// inProcess calls a monitord.Server's ServeHTTP on a recorder.
type inProcess struct {
	h http.Handler
}

func (p inProcess) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), nil
}

// seedBodies renders each tenant's creation body once, outside the timed
// set-up.
func seedBodies(tenants []*tenantState) ([][]byte, error) {
	out := make([][]byte, len(tenants))
	for i, t := range tenants {
		b, err := json.Marshal(t.spec)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// seedTenants creates every tenant through the API and moves each
// virtual clock to its starting instant, where the generator started the
// model's clocks. It leaves the model alone, so a run can set up again
// while its model holds the timed loop's state.
func seedTenants(tr transport, tenants []*tenantState, bodies [][]byte, start time.Duration) error {
	adv, err := json.Marshal(monitord.AdvanceSpec{To: monitord.Duration(start)})
	if err != nil {
		return err
	}
	for i, t := range tenants {
		if st, b, err := tr.do(http.MethodPut, "/tenants/"+t.name, bodies[i]); err != nil || st != http.StatusCreated {
			return fmt.Errorf("create %s: status %d %s %v", t.name, st, b, err)
		}
		if st, b, err := tr.do(http.MethodPost, "/tenants/"+t.name+"/advance", adv); err != nil || st != http.StatusOK {
			return fmt.Errorf("advance %s: status %d %s %v", t.name, st, b, err)
		}
	}
	return nil
}

// generator yields a workload's seeded operation sequence. It applies
// nothing itself: the caller applies each op to the model once the
// program has accepted it, so the next op is drawn from the same state
// on every replay.
type generator interface {
	tenants() []*tenantState
	// round returns the next whole round of ops; each op is drawn when
	// the previous one has been applied, so round is a sequence of
	// thunks.
	round() []func() *op
	start() time.Duration
}

// mixedGen is serve-mixed: ~1000 small virtual tenants and a 107-op
// round of reads and writes.
type mixedGen struct {
	rng       *rand.Rand
	ts        []*tenantState
	transient []*op // joined transient replicas, oldest first
	nextJoin  int
	nextVuln  int
	worstSeen int
}

const mixedTenants = 1000

// mixedShares is cmd/monitorload's worker mix per 100 requests — 45
// assessments, 15 reports, 10 worst, 12 power changes, 10 migrations, 5
// transient join+leave pairs and 3 disclosures — plus the two clock
// advances virtual tenants need (the second on the watched tenant).
var mixedShares = []struct {
	route string
	n     int
}{
	{"assessment", 45}, {"report", 15}, {"worst", 10}, {"power", 12}, {"migrate", 10},
	{"join+leave", 5}, {"disclose", 3}, {"advance", 1}, {"advance-watch", 1},
}

// mixedRound is the route pattern of one serve-mixed round: each route's
// slots spread evenly over the round, a join+leave slot a join followed
// by the leave of that replica.
var mixedRound = spreadRound()

func spreadRound() []string {
	type slot struct {
		at    float64
		route string
	}
	var slots []slot
	for _, sh := range mixedShares {
		for k := 0; k < sh.n; k++ {
			slots = append(slots, slot{(float64(k) + 0.5) / float64(sh.n), sh.route})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].at < slots[j].at })
	var out []string
	for _, sl := range slots {
		if sl.route == "join+leave" {
			out = append(out, "join", "leave")
		} else {
			out = append(out, sl.route)
		}
	}
	return out
}

func newMixedGen(seed int64) *mixedGen {
	g := &mixedGen{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < mixedTenants; i++ {
		t := &tenantState{name: fmt.Sprintf("t%04d", i), m: newModel(), watch: i == 0}
		t.m.now = g.start()
		t.spec = monitord.TenantSpec{Virtual: true, WatchInterval: monitord.Duration(time.Hour)}
		n := 24 + g.rng.Intn(25)
		for r := 0; r < n; r++ {
			t.addReplica(fmt.Sprintf("r%03d", r), g.config(), g.power(), g.lag())
		}
		for v := 3 + g.rng.Intn(6); v > 0; v-- {
			t.addVuln(g.vuln())
		}
		g.ts = append(g.ts, t)
	}
	return g
}

func (g *mixedGen) tenants() []*tenantState { return g.ts }

// start is the virtual instant every tenant begins at: ten days in, with
// the disclosures of days 0–20 partly open and partly patched.
func (g *mixedGen) start() time.Duration { return 10 * 24 * time.Hour }

func (g *mixedGen) config() []comp {
	out := make([]comp, len(serveMixedPool))
	for i, cl := range serveMixedPool {
		p := cl.products[g.rng.Intn(len(cl.products))]
		out[i] = comp{Class: cl.class, Name: p.name, Version: p.versions[g.rng.Intn(len(p.versions))]}
	}
	return out
}

func (g *mixedGen) power() float64 { return float64(1 + g.rng.Intn(8)) }

func (g *mixedGen) lag() time.Duration {
	return []time.Duration{0, 12 * time.Hour, 24 * time.Hour, 48 * time.Hour}[g.rng.Intn(4)]
}

func (g *mixedGen) vuln() mVuln {
	cl := serveMixedPool[g.rng.Intn(len(serveMixedPool))]
	p := cl.products[g.rng.Intn(len(cl.products))]
	version := ""
	if g.rng.Intn(2) == 0 {
		version = p.versions[g.rng.Intn(len(p.versions))]
	}
	disclosed := time.Duration(g.rng.Intn(20*24)) * time.Hour
	g.nextVuln++
	return mVuln{
		ID: fmt.Sprintf("v%05d", g.nextVuln), Class: cl.class, Product: p.name, Version: version,
		Disclosed: disclosed, PatchAt: disclosed + time.Duration(1+g.rng.Intn(10))*24*time.Hour,
		Severity: severities[g.rng.Intn(len(severities))],
	}
}

func (g *mixedGen) round() []func() *op {
	out := make([]func() *op, len(mixedRound))
	for i, route := range mixedRound {
		route := route
		out[i] = func() *op { return g.next(route) }
	}
	return out
}

func (g *mixedGen) next(route string) *op {
	t := g.ts[g.rng.Intn(len(g.ts))]
	o := &op{route: route, tenant: t}
	switch route {
	case "worst":
		g.worstSeen++
		o.brute = g.worstSeen%8 == 1
	case "power":
		o.rid = t.ids[g.rng.Intn(len(t.ids))]
		o.power = g.power()
	case "migrate":
		o.rid = t.ids[g.rng.Intn(len(t.ids))]
		o.comps = g.config()
	case "join":
		g.nextJoin++
		o.rid = fmt.Sprintf("x%06d", g.nextJoin)
		o.comps, o.power, o.lag = g.config(), g.power(), g.lag()
		g.transient = append(g.transient, o)
	case "leave":
		j := g.transient[0]
		g.transient = g.transient[1:]
		o.tenant, o.rid = j.tenant, j.rid
	case "disclose":
		o.vuln = g.vuln()
	case "advance":
		o.by = time.Hour
	case "advance-watch":
		o.route, o.tenant, o.by = "advance", g.ts[0], time.Hour
	}
	return o
}

// churnGen is worst-churn: one virtual tenant of ~10k replicas; one op is
// a mutation, then /assessment, then /worst.
type churnGen struct {
	rng       *rand.Rand
	t         *tenantState
	transient []string
	nextJoin  int
	ops       int
}

const (
	churnReplicas = 10000
	churnProducts = 32
	churnPowers   = 97
	churnLags     = 5
	churnVulns    = 200
)

// churnRound is the mutation pattern of one worst-churn round.
var churnRound = []string{"power", "migrate", "power", "join", "power", "power", "migrate", "power", "leave", "power"}

func newChurnGen(seed int64) *churnGen {
	g := &churnGen{rng: rand.New(rand.NewSource(seed))}
	t := &tenantState{name: "fleet", m: newModel()}
	t.m.now = g.start()
	t.spec = monitord.TenantSpec{Virtual: true, WatchInterval: monitord.Duration(time.Hour)}
	// The fleet's make-up is the same for every seed — replica k of the
	// stripe gets product k%32, power 1+k%97 and lag (k%5)·12h, as in
	// internal/assessbench — so the sweep's cost does not depend on the
	// seed. The seed permutes which id holds which stripe slot, which
	// product each vulnerability hits, and the mutations.
	slots := g.rng.Perm(churnReplicas)
	for i := 0; i < churnReplicas; i++ {
		k := slots[i]
		comps := []comp{{Class: "operating-system", Name: fmt.Sprintf("os-%02d", k%churnProducts), Version: "1"}}
		t.addReplica(fmt.Sprintf("r%05d", i), comps, float64(1+k%churnPowers), time.Duration(k%churnLags)*12*time.Hour)
	}
	// Disclosures spread evenly over 29 days, each product hit the same
	// number of times, half at severity 1 and half at 0.5.
	products := g.rng.Perm(churnProducts)
	span := 29 * 24 * time.Hour
	for i := 0; i < churnVulns; i++ {
		disclosed := (time.Duration(i) * span / churnVulns).Truncate(time.Minute)
		sev := 1.0
		if i%2 == 1 {
			sev = 0.5
		}
		t.addVuln(mVuln{
			ID: fmt.Sprintf("v%04d", i), Class: "operating-system", Product: fmt.Sprintf("os-%02d", products[i%churnProducts]),
			Disclosed: disclosed, PatchAt: disclosed + 48*time.Hour, Severity: sev,
		})
	}
	g.t = t
	return g
}

func (g *churnGen) tenants() []*tenantState { return []*tenantState{g.t} }

// start puts the fleet mid-horizon, with a few dozen windows open.
func (g *churnGen) start() time.Duration { return 15 * 24 * time.Hour }

func (g *churnGen) config() []comp {
	return []comp{{Class: "operating-system", Name: fmt.Sprintf("os-%02d", g.rng.Intn(churnProducts)), Version: "1"}}
}

func (g *churnGen) power() float64 { return float64(1 + g.rng.Intn(churnPowers)) }

func (g *churnGen) lag() time.Duration { return time.Duration(g.rng.Intn(churnLags)) * 12 * time.Hour }

// round yields ten operations of three requests each, flattened: the
// caller groups them back in threes.
func (g *churnGen) round() []func() *op {
	var out []func() *op
	for _, route := range churnRound {
		route := route
		out = append(out,
			func() *op { return g.mutation(route) },
			func() *op { return &op{route: "assessment", tenant: g.t} },
			func() *op {
				g.ops++
				return &op{route: "worst", tenant: g.t, brute: g.ops%16 == 1}
			})
	}
	return out
}

func (g *churnGen) mutation(route string) *op {
	t := g.t
	o := &op{route: route, tenant: t}
	switch route {
	case "power":
		o.rid = t.ids[g.rng.Intn(len(t.ids))]
		o.power = g.power()
	case "migrate":
		o.rid = t.ids[g.rng.Intn(len(t.ids))]
		o.comps = g.config()
	case "join":
		g.nextJoin++
		o.rid = fmt.Sprintf("x%06d", g.nextJoin)
		o.comps, o.power, o.lag = g.config(), g.power(), g.lag()
		g.transient = append(g.transient, o.rid)
	case "leave":
		o.rid = g.transient[0]
		g.transient = g.transient[1:]
	}
	return o
}

// --- response checks ---------------------------------------------------

// wireReport is the diversity part of a response, decoded by the
// benchmark's own declaration of the wire format.
type wireReport struct {
	Support  int     `json:"support"`
	Members  int     `json:"members"`
	Entropy  float64 `json:"entropy"`
	MaxShare float64 `json:"maxShare"`
}

type wireAssessment struct {
	Tenant        string     `json:"tenant"`
	At            string     `json:"at"`
	Threshold     float64    `json:"threshold"`
	Safe          bool       `json:"safe"`
	TotalFraction float64    `json:"totalFraction"`
	Diversity     wireReport `json:"diversity"`
	Faults        []struct {
		Vuln        string   `json:"vuln"`
		Compromised []string `json:"compromised"`
	} `json:"faults"`
}

const tol = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }

func checkReport(got wireReport, want diversity) error {
	if got.Members != want.Members || got.Support != want.Support || !near(got.Entropy, want.Entropy) || !near(got.MaxShare, want.MaxShare) {
		return fmt.Errorf("diversity %+v, model %+v", got, want)
	}
	return nil
}

// checkInjection compares a response's fault picture with the model's
// evaluation of the same instant.
func checkInjection(a *wireAssessment, want injection) error {
	if !near(a.TotalFraction, want.Total) {
		return fmt.Errorf("totalFraction %v at %s, model %v", a.TotalFraction, a.At, want.Total)
	}
	if len(a.Faults) != len(want.Faults) {
		return fmt.Errorf("%d faults at %s, model %d", len(a.Faults), a.At, len(want.Faults))
	}
	for _, f := range a.Faults {
		ids, ok := want.Faults[f.Vuln]
		got := append([]string(nil), f.Compromised...)
		sort.Strings(got)
		if !ok || len(got) != len(ids) {
			return fmt.Errorf("fault %s compromises %d, model %d", f.Vuln, len(got), len(ids))
		}
		for i := range got {
			if got[i] != ids[i] {
				return fmt.Errorf("fault %s compromises %s, model %s", f.Vuln, got[i], ids[i])
			}
		}
	}
	return nil
}

// check verifies one response against the model, after the op was
// applied. It returns an error describing the first mismatch.
func check(o *op, status int, body []byte) error {
	if status != o.wantStatus() {
		return fmt.Errorf("%s %s: status %d: %s", o.route, o.tenant.name, status, body)
	}
	m := o.tenant.m
	switch o.route {
	case "report":
		var r wireReport
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return checkReport(r, m.diversity())
	case "assessment", "worst":
		var a wireAssessment
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		at, err := time.ParseDuration(a.At)
		if err != nil {
			return err
		}
		if a.Tenant != o.tenant.name || !near(a.Threshold, 1.0/3) || a.Safe != (a.TotalFraction <= a.Threshold) {
			return fmt.Errorf("%s %s: tenant %q threshold %v safe %t at fraction %v", o.route, o.tenant.name, a.Tenant, a.Threshold, a.Safe, a.TotalFraction)
		}
		if err := checkReport(a.Diversity, m.diversity()); err != nil {
			return err
		}
		total := m.totalPower()
		if o.route == "assessment" {
			if at != m.now {
				return fmt.Errorf("assessment at %v, model now %v", at, m.now)
			}
			return checkInjection(&a, m.inject(at, total, true))
		}
		now := m.inject(m.now, total, false).Total
		if a.TotalFraction < now-tol {
			return fmt.Errorf("worst %v below the fraction %v at now %v", a.TotalFraction, now, m.now)
		}
		if a.TotalFraction == 0 {
			if at != 0 || len(a.Faults) != 0 {
				return fmt.Errorf("zero worst window at %v with %d faults", at, len(a.Faults))
			}
		} else if err := checkInjection(&a, m.inject(at, total, true)); err != nil {
			return fmt.Errorf("worst: %w", err)
		}
		if o.brute {
			if best := m.bruteWorst(worstHorizon); !near(a.TotalFraction, best) {
				return fmt.Errorf("worst %v, brute-force maximum %v", a.TotalFraction, best)
			}
		}
	}
	return nil
}
