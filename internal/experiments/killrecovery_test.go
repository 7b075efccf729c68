package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/debitcredit"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/disk/filevol"
	"nonstopsql/internal/dp"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// The kill -9 test re-execs this test binary as a child process: when
// NSQL_KILL_CHILD_DIR is set, TestMain runs DebitCredit traffic on
// file-backed volumes in that directory instead of the test suite, and
// never returns — the parent SIGKILLs it mid-commit.
func TestMain(m *testing.M) {
	if dir := os.Getenv("NSQL_KILL_CHILD_DIR"); dir != "" {
		if err := runKillChild(dir, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "kill child: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0) // unreachable: runKillChild loops forever
	}
	os.Exit(m.Run())
}

// TestKillRecovery is the sharpest durability check in the repo: a real
// process is SIGKILLed while committing against file-backed volumes,
// and recovery rebuilds a consistent bank from the on-disk files alone.
func TestKillRecovery(t *testing.T) {
	target := uint64(400)
	if os.Getenv("QUICK") == "1" {
		target = 80
	}
	dir := t.TempDir()

	child := exec.Command(os.Args[0], "-test.run=^$")
	child.Env = append(os.Environ(), "NSQL_KILL_CHILD_DIR="+dir)
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			_ = child.Process.Kill()
		}
		_ = child.Wait()
	}()

	// Watch the child's progress; SIGKILL — no flush, no goodbye — once
	// enough commits have been reported.
	var lastCount uint64
	sc := bufio.NewScanner(stdout)
	deadline := time.Now().Add(60 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		if n, ok := strings.CutPrefix(line, "COUNT "); ok {
			v, err := strconv.ParseUint(n, 10, 64)
			if err != nil {
				t.Fatalf("bad child output %q: %v", line, err)
			}
			lastCount = v
			if v >= target {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("child too slow: %d/%d commits after 60s", lastCount, target)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading child: %v", err)
	}
	if lastCount < target {
		t.Fatalf("child exited early at %d/%d commits", lastCount, target)
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	killed = true
	_ = child.Wait()

	committed, sum, err := verifyKillRecovery(dir)
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	if committed == 0 {
		t.Fatal("no durably committed transactions found — the child never made anything durable")
	}
	// The child reported >= target commits before dying; durability can
	// trail the report by in-flight group commits but not collapse.
	t.Logf("kill -9 after %d reported commits: recovered %d durable txns, conserved balance sum %v",
		lastCount, committed, sum)
}

// killScale is the bank size the child builds; the verifier must use
// the same shape to reconstruct schemas.
var killScale = debitcredit.Scale{Branches: 4, TellersPerBr: 5, AccountsPerBr: 50}

const killClients = 4

// killMeta is what a restart would know: the durable file catalog. The
// child persists it right after CREATE, before any traffic.
type killMeta struct {
	FirstBlock disk.BlockNum             `json:"first_block"`
	Files      map[string][]killFileMeta `json:"files"` // volume → fragments
}

type killFileMeta struct {
	Name       string        `json:"name"`
	Root       disk.BlockNum `json:"root"`
	FieldAudit bool          `json:"field_audit"`
}

// runKillChild is the child process body: build a file-backed cluster in
// dir, persist the file catalog, then run DebitCredit traffic forever,
// reporting progress as "COUNT n" lines on w. It never returns — the
// parent kills it.
func runKillChild(dir string, w io.Writer) error {
	c, err := cluster.New(cluster.Options{
		CPUsPerNode: 4, DPWorkers: 8, WriteBehind: true, DataDir: dir,
	})
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := c.AddVolume(0, i%3, fmt.Sprintf("$DATA%d", i+1)); err != nil {
			return err
		}
	}
	f := c.NewFS(0, 0)
	bank := debitcredit.Defs([]string{"$DATA1", "$DATA2"}, true)
	if err := bank.Create(f, killScale); err != nil {
		return err
	}
	meta := killMeta{FirstBlock: c.Nodes[0].Trail.FirstBlock(), Files: map[string][]killFileMeta{}}
	for _, name := range []string{"$DATA1", "$DATA2"} {
		for _, m := range c.DP(name).Files() {
			meta.Files[name] = append(meta.Files[name], killFileMeta{
				Name: m.Name, Root: m.Root, FieldAudit: m.FieldAudit,
			})
		}
	}
	mf, err := os.Create(filepath.Join(dir, "meta.json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(mf).Encode(meta); err != nil {
		return err
	}
	if err := mf.Sync(); err != nil {
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}
	fmt.Fprintln(w, "READY")

	var commits atomic.Uint64
	for g := 0; g < killClients; g++ {
		go func(id int) {
			cf := c.NewFS(0, id%3)
			rng := rand.New(rand.NewSource(int64(4200 + id)))
			for {
				t := debitcredit.Txn{
					AID:   int64(id*killScale.AccountsPerBr + rng.Intn(killScale.AccountsPerBr)),
					TID:   int64(id*killScale.TellersPerBr + rng.Intn(killScale.TellersPerBr)),
					BID:   int64(id),
					Delta: float64(rng.Intn(2001) - 1000),
				}
				if err := bank.RunSQL(cf, t); err != nil {
					return // the cluster is being torn down under us
				}
				commits.Add(1)
			}
		}(g)
	}
	for {
		time.Sleep(20 * time.Millisecond)
		fmt.Fprintf(w, "COUNT %d\n", commits.Load())
	}
}

// verifyKillRecovery recovers the bank from the killed child's on-disk
// files alone and checks consistency: audit scan, WAL replay into fresh
// Disk Processes, B-tree validation, and balance conservation
// (sum(ACCOUNT) = sum(TELLER) = sum(BRANCH) = sum(HISTORY deltas)).
// Returns the number of durably committed transactions and the
// conserved sum.
func verifyKillRecovery(dir string) (committed int, sum float64, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return 0, 0, err
	}
	var meta killMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return 0, 0, err
	}

	openVol := func(name string) (*filevol.Volume, error) {
		return filevol.Open(filevol.Config{
			Path: filepath.Join(dir, name+".vol"), Name: "$" + name,
		})
	}
	auditVol, err := openVol("AUDIT0")
	if err != nil {
		return 0, 0, err
	}
	defer auditVol.Close()
	recs, err := wal.Scan(auditVol, meta.FirstBlock)
	if err != nil {
		return 0, 0, fmt.Errorf("audit scan: %w", err)
	}
	committedTx := map[uint64]bool{}
	for _, rec := range recs {
		if rec.Type == wal.RecCommit {
			committedTx[rec.TxID] = true
		}
	}

	// Schemas and checks are code, not data: rebuild the defs the child
	// used and match them to the persisted catalog by file name.
	bank := debitcredit.Defs([]string{"$DATA1", "$DATA2"}, true)
	defByName := map[string]*fs.FileDef{}
	for _, def := range []*fs.FileDef{bank.Account, bank.Teller, bank.Branch, bank.History} {
		defByName[def.Name] = def
	}

	recovered := map[string]*dp.DP{}
	for _, name := range []string{"$DATA1", "$DATA2"} {
		vol, err := openVol(name[1:])
		if err != nil {
			return 0, 0, err
		}
		defer vol.Close()
		rTrail, err := wal.NewTrail(wal.Config{Volume: disk.NewVolume(name+".R-AUDIT", true)})
		if err != nil {
			return 0, 0, err
		}
		defer rTrail.Close()
		rd, err := dp.New(dp.Config{Name: name, Volume: vol, Audit: tmf.NewAuditPort(rTrail, nil, "", 0)})
		if err != nil {
			return 0, 0, err
		}
		for _, m := range meta.Files[name] {
			def, ok := defByName[m.Name]
			if !ok {
				return 0, 0, fmt.Errorf("catalog lists unknown file %q", m.Name)
			}
			rd.AttachFile(m.Name, def.Schema, def.Check, m.Root, m.FieldAudit)
		}
		if err := rd.Recover(recs); err != nil {
			return 0, 0, fmt.Errorf("recover %s: %w", name, err)
		}
		if err := rd.ValidateFiles(); err != nil {
			return 0, 0, fmt.Errorf("recovered %s: %w", name, err)
		}
		recovered[name] = rd
	}

	sumOf := func(d *dp.DP, file string, field int) (float64, error) {
		rows, err := d.DumpFile(file)
		if err != nil {
			return 0, err
		}
		s := 0.0
		for _, row := range rows {
			s += row[field].AsFloat()
		}
		return s, nil
	}
	accSum, err := sumOf(recovered["$DATA1"], "ACCOUNT", 2)
	if err != nil {
		return 0, 0, err
	}
	telSum, err := sumOf(recovered["$DATA2"], "TELLER", 2)
	if err != nil {
		return 0, 0, err
	}
	brSum, err := sumOf(recovered["$DATA1"], "BRANCH", 1)
	if err != nil {
		return 0, 0, err
	}
	histSum, err := sumOf(recovered["$DATA2"], "HISTORY", 4)
	if err != nil {
		return 0, 0, err
	}
	if accSum != telSum || accSum != brSum || accSum != histSum {
		return 0, 0, fmt.Errorf("balances not conserved after kill -9: accounts %v, tellers %v, branches %v, history deltas %v",
			accSum, telSum, brSum, histSum)
	}
	return len(committedTx), accSum, nil
}
