package xxl

import (
	"testing"

	"tango/internal/client"
	"tango/internal/engine"
	"tango/internal/server"
	"tango/internal/types"
	"tango/internal/wire"
)

// TestTransferMOpenFailureDropsDependencyTemps: when TRANSFER^M's
// cursor cannot be opened after a TRANSFER^D dependency already
// created and loaded its temp table, Open must drop that table before
// returning the error — nothing else would (the operator never became
// open, so no Close follows).
func TestTransferMOpenFailureDropsDependencyTemps(t *testing.T) {
	srv := server.New(engine.Open(engine.Config{}), wire.Latency{})
	conn := client.Connect(srv)
	in := mkRel("A,B", []interface{}{1, 2}, []interface{}{3, 4})
	schema := types.NewSchema(types.Column{Name: "A", Kind: types.KindInt})

	cases := []struct {
		name string
		sql  func(table string) string
	}{
		{"cursor-open-fails", func(string) string { return "SELECT A FROM NO_SUCH_TABLE" }},
		{"schema-mismatch", func(table string) string { return "SELECT A, B FROM " + table }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			td := NewTransferD(conn, in.Iter(), conn.TempName())
			tm := NewTransferM(conn, c.sql(td.Table()), schema, td)
			if err := tm.Open(); err == nil {
				t.Fatal("Open succeeded; want an error")
			}
			if !td.ran {
				t.Fatal("the T^D dependency never ran; the case does not exercise the leak")
			}
			if left := srv.TempTables(); len(left) != 0 {
				t.Errorf("temp tables left after failed Open: %v", left)
			}
		})
	}
}
