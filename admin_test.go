package nonstopsql_test

import (
	"strings"
	"testing"

	"nonstopsql"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/nsqlclient"
)

// TestAdminOpsAreGated: crashing a volume, restarting it and zeroing the
// counters are the operator's commands. A database served with the
// default Config refuses all three to every client — over TCP and on the
// in-process transport — and nothing happens: the volume keeps serving
// and the counters keep counting. One served with AdminOps serves them.
func TestAdminOpsAreGated(t *testing.T) {
	for _, admin := range []bool{false, true} {
		db, sess, inproc, pool := served(t, nonstopsql.Config{AdminOps: admin})
		sess.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
		sess.MustExec("INSERT INTO t VALUES (1, 10)")
		vol := db.Volumes()[0]
		for name, tr := range map[string]msg.Transport{"TCP": pool, "in process": inproc} {
			ops := map[string]func() error{
				"reset stats": func() error { return nsqlclient.ResetStats(tr) },
				"crash":       func() error { return nsqlclient.Crash(tr, vol) },
				"restart":     func() error { return nsqlclient.Restart(tr, vol) },
			}
			for _, op := range []string{"reset stats", "crash", "restart"} {
				err := ops[op]()
				switch {
				case !admin && (err == nil || !strings.Contains(err.Error(), "-admin")):
					t.Errorf("default server, %s over %s: %v, want a refusal naming -admin", op, name, err)
				case admin && err != nil:
					t.Errorf("AdminOps server, %s over %s: %v", op, name, err)
				}
				if op == "crash" {
					_, err := nsqlclient.Exec(tr, "SELECT v FROM t WHERE id = 1")
					if !admin && err != nil {
						t.Errorf("default server: a refused crash took the volume down: %v", err)
					}
					if admin && err == nil {
						t.Errorf("AdminOps server: %s still serves after a crash over %s", vol, name)
					}
				}
			}
			if !admin && db.Stats().Messages == 0 {
				t.Errorf("default server: a refused reset zeroed the counters")
			}
		}
		if res, err := nsqlclient.Exec(pool, "SELECT v FROM t WHERE id = 1"); err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 10 {
			t.Errorf("AdminOps=%v: after the commands the table reads %+v, %v", admin, res, err)
		}
	}
}
