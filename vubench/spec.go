package main

// The three workloads and their seeded input generators. A generator
// turns (seed, cycles) into the preload script, the models' initial
// state and every client's operation stream; the program receives only
// these generated inputs.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// An op is one client operation: a view update or a point read.
type op struct {
	kind   string            // insert | delete | replace | read
	values []string          // insert: the view row
	where  map[string]string // delete, replace: the target row's key
	set    map[string]string // replace: the new values
	key    string            // read: the key value
	// want, for a read, is the expected row with "*" for columns that
	// may lag (a follower's budgets); nil means the view model's row at
	// the time of the reply.
	want row
}

// A clientOps is one closed-loop client's two streams: a warm-up that
// fills caches before anything is timed, then the measured operations.
type clientOps struct {
	follower bool // reads go to the follower, not the primary
	warm     []op
	measured []op
}

// inputs are everything a workload's seed determines.
type inputs struct {
	ddl     string // vuserved -init: domains, tables, views, policy
	preload string // the script that builds the base (ddl plus rows)
	cycles  int    // measured cycles per client
	base    *baseModel
	view    *viewModel
	clients []clientOps
}

type workload struct {
	name   string
	view   string
	cols   []string
	groups [][]int
	// levels, for a join view, is the reference chain below the EMP
	// root that the nested-loop oracle follows.
	levels []joinLevel
	// selection restricts the base model to the view's rows, for an SP
	// view: column selCol of EMP holds selVal.
	selCol int
	selVal string
	// baseViews maps each base relation to the identity view through
	// which the checks read it.
	baseViews map[string]string
	follower  bool
	// prefer is the view's explicit policy (nil: the shipped default).
	prefer []string
	// cyclesPerSecond sets the run's fixed amount of work: a run of s
	// seconds makes round(s × cyclesPerSecond) measured cycles per
	// client, about s seconds' worth on a 2-core host.
	cyclesPerSecond float64
	// setups and recoveries are how many times a run measures set-up
	// and recovery from kill -9.
	setups, recoveries int
	// roundCycles is how many cycles per client make one round of the
	// measured phase (see calmest).
	roundCycles int
	// think is each client's pause after every operation. It keeps the
	// host below saturation, where a neighbour's slowdown would be
	// multiplied by queueing between the two clients.
	think time.Duration
	gen   func(w *workload, rng *rand.Rand, warm, measured int) *inputs
}

var workloads = []*workload{
	{
		name: "sp-small", view: "NY",
		cols: []string{"EmpNo", "Location"}, groups: [][]int{{0, 1}},
		selCol: 1, selVal: "New York",
		baseViews:       map[string]string{"EMP": "EMPALL"},
		prefer:          []string{"I-1", "R-2", "D-1"},
		cyclesPerSecond: 75,
		setups:          9,
		recoveries:      21,
		roundCycles:     5,
		think:           time.Millisecond,
		gen:             func(w *workload, rng *rand.Rand, warm, n int) *inputs { return genSP(w, rng, 1000, warm, n) },
	},
	{
		name: "sp-large", view: "NY",
		cols: []string{"EmpNo", "Location"}, groups: [][]int{{0, 1}},
		selCol: 1, selVal: "New York",
		baseViews:       map[string]string{"EMP": "EMPALL"},
		cyclesPerSecond: 1.5,
		setups:          5,
		recoveries:      5,
		roundCycles:     1,
		gen:             func(w *workload, rng *rand.Rand, warm, n int) *inputs { return genSP(w, rng, 100000, warm, n) },
	},
	{
		name: "spj-mix", view: "J",
		cols:            []string{"ENo", "Dept", "DNo", "Site", "Budget", "SNo", "Reg"},
		groups:          [][]int{{0, 1}, {2, 3, 4}, {5, 6}},
		levels:          []joinLevel{{rel: "DEPT", fk: 1}, {rel: "SITE", fk: 3}},
		baseViews:       map[string]string{"EMP": "EV", "DEPT": "DV", "SITE": "SV"},
		follower:        true,
		prefer:          []string{"I-1", "R-1", "D-1"},
		cyclesPerSecond: 5,
		setups:          9,
		recoveries:      21,
		roundCycles:     1,
		gen:             genSPJ,
	},
}

func workloadNamed(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func (w *workload) policyStmt() string {
	if w.prefer == nil {
		return ""
	}
	q := make([]string, len(w.prefer))
	for i, c := range w.prefer {
		q[i] = "'" + c + "'"
	}
	return fmt.Sprintf("SET POLICY %s PREFER %s;\n", w.view, strings.Join(q, ", "))
}

const spClients = 2

// genSP builds an SP workload over EMP(EmpNo, Location) with n
// preloaded rows: n distinct keys drawn from 1..2n, each in New York
// with probability 1/2. Each of two clients rotates insert → key-moving
// replace → delete over fresh keys above 2n that no other client
// touches, with one point read after each update: of the key just
// inserted, of a random preloaded New York row, and of the key just
// deleted.
func genSP(w *workload, rng *rand.Rand, n, warm, measured int) *inputs {
	cycles := warm + measured
	maxKey := 2*n + 2*spClients*cycles + 2
	var ddl strings.Builder
	fmt.Fprintf(&ddl, "CREATE DOMAIN NoDom AS INT RANGE 1 TO %d;\n", maxKey)
	ddl.WriteString("CREATE DOMAIN LocDom AS STRING ('New York', 'San Francisco');\n")
	ddl.WriteString("CREATE TABLE EMP (EmpNo NoDom, Location LocDom, PRIMARY KEY (EmpNo));\n")
	views := "CREATE VIEW NY AS SELECT * FROM EMP WHERE Location = 'New York';\n" +
		"CREATE VIEW EMPALL AS SELECT * FROM EMP;\n" + w.policyStmt()

	in := &inputs{cycles: measured, base: newBaseModel(), view: newViewModel(w.cols, w.groups)}
	var pre strings.Builder
	pre.WriteString(ddl.String())
	var ny []string
	for _, k := range rng.Perm(2 * n)[:n] {
		key := strconv.Itoa(k + 1)
		loc := "San Francisco"
		if rng.Intn(2) == 0 {
			loc = "New York"
			ny = append(ny, key)
			mustModel(in.view.insert([]string{key, loc}))
		}
		mustModel(in.base.add("EMP", row{key, loc}))
		fmt.Fprintf(&pre, "INSERT INTO EMP VALUES (%s, '%s');\n", key, loc)
	}
	pre.WriteString(views)
	in.ddl = ddl.String() + views
	in.preload = pre.String()

	for c := 0; c < spClients; c++ {
		var ops []op
		for i := 0; i < cycles; i++ {
			k := 2*n + 1 + 2*(i*spClients+c)
			k1, k2 := strconv.Itoa(k), strconv.Itoa(k+1)
			stable := ny[rng.Intn(len(ny))]
			ops = append(ops,
				op{kind: "insert", values: []string{k1, "New York"}},
				op{kind: "read", key: k1},
				op{kind: "replace", where: map[string]string{"EmpNo": k1}, set: map[string]string{"EmpNo": k2}},
				op{kind: "read", key: stable, want: row{stable, "New York"}},
				op{kind: "delete", where: map[string]string{"EmpNo": k2}},
				op{kind: "read", key: k2},
			)
		}
		split := 6 * warm
		in.clients = append(in.clients, clientOps{warm: ops[:split], measured: ops[split:]})
	}
	return in
}

// spjReadsPerCycle is how many follower reads the reading client makes
// per writer cycle (three updates).
const spjReadsPerCycle = 25

// genSPJ builds the join workload: SITE (10 rows) ← DEPT (100) ← EMP
// (10⁴), joined by J rooted at EMP. The writer rotates a root insert
// into a random department, a budget change of a random preloaded
// employee's department (a replace of one DEPT tuple that changes every
// view row of that department), and the delete of the inserted root.
// The reader makes point reads of random preloaded employees on the
// follower.
func genSPJ(w *workload, rng *rand.Rand, warm, measured int) *inputs {
	const sites, depts, emps = 10, 100, 10000
	cycles := warm + measured
	regions := []string{"east", "west", "north", "south"}
	var ddl strings.Builder
	fmt.Fprintf(&ddl, "CREATE DOMAIN EKey AS INT RANGE 1 TO %d;\n", 2*emps+cycles+1)
	fmt.Fprintf(&ddl, "CREATE DOMAIN DKey AS INT RANGE 1 TO %d;\n", depts)
	fmt.Fprintf(&ddl, "CREATE DOMAIN SKey AS INT RANGE 1 TO %d;\n", sites)
	ddl.WriteString("CREATE DOMAIN Funds AS INT RANGE 0 TO 999;\n")
	ddl.WriteString("CREATE DOMAIN Region AS STRING ('east', 'west', 'north', 'south');\n")
	ddl.WriteString("CREATE TABLE SITE (SNo SKey, Reg Region, PRIMARY KEY (SNo));\n")
	ddl.WriteString("CREATE TABLE DEPT (DNo DKey, Site SKey, Budget Funds, PRIMARY KEY (DNo), FOREIGN KEY (Site) REFERENCES SITE);\n")
	ddl.WriteString("CREATE TABLE EMP (ENo EKey, Dept DKey, PRIMARY KEY (ENo), FOREIGN KEY (Dept) REFERENCES DEPT);\n")
	views := "CREATE VIEW SV AS SELECT * FROM SITE;\n" +
		"CREATE VIEW DV AS SELECT * FROM DEPT;\n" +
		"CREATE VIEW EV AS SELECT * FROM EMP;\n" +
		"CREATE JOIN VIEW J ROOT EV WITH EV (Dept) REFERENCES DV, DV (Site) REFERENCES SV;\n" +
		w.policyStmt()

	in := &inputs{cycles: measured, base: newBaseModel(), view: newViewModel(w.cols, w.groups)}
	var pre strings.Builder
	pre.WriteString(ddl.String())
	reg := make([]string, sites+1)
	for s := 1; s <= sites; s++ {
		reg[s] = regions[rng.Intn(len(regions))]
		mustModel(in.base.add("SITE", row{strconv.Itoa(s), reg[s]}))
		fmt.Fprintf(&pre, "INSERT INTO SITE VALUES (%d, '%s');\n", s, reg[s])
	}
	site := make([]int, depts+1)
	budget := make([]int, depts+1)
	for d := 1; d <= depts; d++ {
		site[d], budget[d] = 1+rng.Intn(sites), rng.Intn(1000)
		mustModel(in.base.add("DEPT", row{strconv.Itoa(d), strconv.Itoa(site[d]), strconv.Itoa(budget[d])}))
		fmt.Fprintf(&pre, "INSERT INTO DEPT VALUES (%d, %d, %d);\n", d, site[d], budget[d])
	}
	viewRow := func(e, d int) []string {
		s := site[d]
		return []string{strconv.Itoa(e), strconv.Itoa(d), strconv.Itoa(d), strconv.Itoa(s),
			strconv.Itoa(budget[d]), strconv.Itoa(s), reg[s]}
	}
	var keys []int
	deptOf := map[int]int{}
	for _, k := range rng.Perm(2 * emps)[:emps] {
		e, d := k+1, 1+rng.Intn(depts)
		keys = append(keys, e)
		deptOf[e] = d
		mustModel(in.base.add("EMP", row{strconv.Itoa(e), strconv.Itoa(d)}))
		mustModel(in.view.insert(viewRow(e, d)))
		fmt.Fprintf(&pre, "INSERT INTO EMP VALUES (%d, %d);\n", e, d)
	}
	pre.WriteString(views)
	in.ddl = ddl.String() + views
	in.preload = pre.String()

	var writes, reads []op
	for i := 0; i < cycles; i++ {
		e := 2*emps + 1 + i
		d := 1 + rng.Intn(depts)
		target := keys[rng.Intn(len(keys))]
		d2 := deptOf[target]
		nb := rng.Intn(999)
		if nb >= budget[d2] {
			nb++
		}
		writes = append(writes,
			op{kind: "insert", values: viewRow(e, d)},
			op{kind: "replace", where: map[string]string{"ENo": strconv.Itoa(target)}, set: map[string]string{"Budget": strconv.Itoa(nb)}},
			op{kind: "delete", where: map[string]string{"ENo": strconv.Itoa(e)}},
		)
		budget[d2] = nb
		for j := 0; j < spjReadsPerCycle; j++ {
			r := keys[rng.Intn(len(keys))]
			want := row(viewRow(r, deptOf[r]))
			want[4] = "*" // the follower may lag behind a budget change
			reads = append(reads, op{kind: "read", key: strconv.Itoa(r), want: want})
		}
	}
	in.clients = []clientOps{
		{warm: writes[:3*warm], measured: writes[3*warm:]},
		{follower: true, warm: reads[:spjReadsPerCycle*warm], measured: reads[spjReadsPerCycle*warm:]},
	}
	return in
}

// mustModel panics on a model error while generating inputs: the
// generator builds its own state, so an error there is a bug in it.
func mustModel(err error) {
	if err != nil {
		panic(err)
	}
}
