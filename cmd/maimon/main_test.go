package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	maimon "repro"
)

// TestPickSchemaReportsMiningError: without -schema, a relation too
// narrow to mine must fail with the miner's reason, not with advice to
// raise -epsilon.
func TestPickSchemaReportsMiningError(t *testing.T) {
	r, err := maimon.FromRows([]string{"A", "B"}, [][]string{{"x", "u"}, {"y", "u"}, {"y", "v"}})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := maimon.Open(r)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, err = pickSchema(context.Background(), sess, "", nil)
	if !strings.Contains(fmt.Sprint(err), "need at least 3 attributes") {
		t.Fatalf("pickSchema on 2 columns: error %v, want the miner's arity error", err)
	}
}
