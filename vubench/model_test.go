package main

import (
	"reflect"
	"testing"
)

func rowsOf(rs ...[]string) []row {
	out := make([]row, len(rs))
	for i, r := range rs {
		out[i] = r
	}
	return out
}

// The SP rotation of the workloads, worked by hand: insert 7, move it
// to key 8, delete 8. Row 3 is untouched throughout.
func TestViewModelSelectProject(t *testing.T) {
	m := newViewModel([]string{"EmpNo", "Location"}, [][]int{{0, 1}})
	mustOK(t, m.insert([]string{"3", "New York"}))
	mustOK(t, m.insert([]string{"7", "New York"}))
	mustOK(t, m.replace(map[string]string{"EmpNo": "7"}, map[string]string{"EmpNo": "8"}))
	if err := sameRows("after replace", rowsOf([]string{"3", "New York"}, []string{"8", "New York"}), m.all()); err != nil {
		t.Fatal(err)
	}
	mustOK(t, m.delete(map[string]string{"EmpNo": "8"}))
	if err := sameRows("after delete", rowsOf([]string{"3", "New York"}), m.all()); err != nil {
		t.Fatal(err)
	}
	if err := m.insert([]string{"3", "New York"}); err == nil {
		t.Fatal("insert of an existing key succeeded")
	}
	if err := m.delete(map[string]string{"EmpNo": "8"}); err == nil {
		t.Fatal("delete of a missing row succeeded")
	}
}

// A budget change through one row of a join view changes the budget in
// every row of that department and in no other.
func TestViewModelJoinGroups(t *testing.T) {
	cols := []string{"ENo", "Dept", "DNo", "Site", "Budget", "SNo", "Reg"}
	m := newViewModel(cols, [][]int{{0, 1}, {2, 3, 4}, {5, 6}})
	mustOK(t, m.insert([]string{"1", "10", "10", "1", "5", "1", "east"}))
	mustOK(t, m.insert([]string{"2", "10", "10", "1", "5", "1", "east"}))
	mustOK(t, m.insert([]string{"3", "11", "11", "1", "6", "1", "east"}))
	mustOK(t, m.replace(map[string]string{"ENo": "2"}, map[string]string{"Budget": "9"}))
	want := rowsOf(
		[]string{"1", "10", "10", "1", "9", "1", "east"},
		[]string{"2", "10", "10", "1", "9", "1", "east"},
		[]string{"3", "11", "11", "1", "6", "1", "east"},
	)
	if err := sameRows("after budget change", want, m.all()); err != nil {
		t.Fatal(err)
	}
}

// The acknowledgement of a default-policy key-moving replace (R-4):
// the new row is inserted and the old one flipped out of the view,
// where it stays in the base.
func TestBaseModelAppliesReportedOps(t *testing.T) {
	b := newBaseModel()
	mustOK(t, b.add("EMP", row{"7", "New York"}))
	mustOK(t, b.add("EMP", row{"9", "San Francisco"}))
	mustOK(t, b.apply("INSERT EMP(8, 'New York')"))
	mustOK(t, b.apply("REPLACE EMP(7, 'New York') -> EMP(7, 'San Francisco')"))
	want := rowsOf([]string{"7", "San Francisco"}, []string{"8", "New York"}, []string{"9", "San Francisco"})
	if err := sameRows("base", want, b.all("EMP")); err != nil {
		t.Fatal(err)
	}
	if err := sameRows("restriction", rowsOf([]string{"8", "New York"}), b.where("EMP", 1, "New York")); err != nil {
		t.Fatal(err)
	}
	mustOK(t, b.apply("DELETE EMP(8, 'New York')"))
	if err := b.apply("DELETE EMP(8, 'New York')"); err == nil {
		t.Fatal("deleting a missing tuple succeeded")
	}
	if err := b.apply("DELETE EMP(7, 'New York')"); err == nil {
		t.Fatal("deleting a tuple with other values succeeded")
	}
	if err := b.apply("INSERT EMP(9, 'New York')"); err == nil {
		t.Fatal("inserting an existing key succeeded")
	}
}

func TestParseOp(t *testing.T) {
	cases := []struct {
		in   string
		want baseOp
	}{
		{"INSERT EMP(8, 'New York')", baseOp{kind: "INSERT", rel: "EMP", new: row{"8", "New York"}}},
		{"DELETE T(1, 'a, b', true)", baseOp{kind: "DELETE", rel: "T", old: row{"1", "a, b", "true"}}},
		{"REPLACE DEPT(10, 1, 5) -> DEPT(10, 1, 9)", baseOp{kind: "REPLACE", rel: "DEPT", old: row{"10", "1", "5"}, new: row{"10", "1", "9"}}},
		{"INSERT Q('it''s')", baseOp{kind: "INSERT", rel: "Q", new: row{"it's"}}},
	}
	for _, c := range cases {
		got, err := parseOp(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: got %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"INSERT", "UPSERT EMP(1)", "INSERT EMP(1", "REPLACE EMP(1) EMP(2)", "REPLACE A(1) -> B(1)", "INSERT EMP('x)"} {
		if _, err := parseOp(bad); err == nil {
			t.Fatalf("%q parsed", bad)
		}
	}
}

// Three levels, worked by hand: employee 4 references a department
// that does not exist and drops out; department 12 has no employee.
func TestNestedLoopJoin(t *testing.T) {
	b := newBaseModel()
	mustOK(t, b.add("SITE", row{"1", "east"}))
	mustOK(t, b.add("SITE", row{"2", "west"}))
	mustOK(t, b.add("DEPT", row{"10", "1", "5"}))
	mustOK(t, b.add("DEPT", row{"11", "2", "6"}))
	mustOK(t, b.add("DEPT", row{"12", "2", "7"}))
	mustOK(t, b.add("EMP", row{"1", "10"}))
	mustOK(t, b.add("EMP", row{"2", "10"}))
	mustOK(t, b.add("EMP", row{"3", "11"}))
	mustOK(t, b.add("EMP", row{"4", "13"}))
	got := nestedLoopJoin(b, "EMP", []joinLevel{{rel: "DEPT", fk: 1}, {rel: "SITE", fk: 3}})
	want := rowsOf(
		[]string{"1", "10", "10", "1", "5", "1", "east"},
		[]string{"2", "10", "10", "1", "5", "1", "east"},
		[]string{"3", "11", "11", "2", "6", "2", "west"},
	)
	if err := sameRows("join", want, got); err != nil {
		t.Fatal(err)
	}
}

func TestSameRowsReportsDifferences(t *testing.T) {
	err := sameRows("v", rowsOf([]string{"1"}, []string{"2"}), rowsOf([]string{"2"}, []string{"3"}, []string{"3"}))
	if err == nil {
		t.Fatal("different sets compared equal")
	}
	if err := sameRows("v", rowsOf([]string{"1"}, []string{"2"}), rowsOf([]string{"2"}, []string{"1"})); err != nil {
		t.Fatal(err)
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
