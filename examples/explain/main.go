// Explain: watch the query compiler decide, for a partitioned and
// indexed table, what travels to the Disk Processes (key ranges,
// predicates, projections, update expressions) and what stays in the
// requester — then verify each plan's message cost against the live
// counters.
package main

import (
	"fmt"
	"log"

	"nonstopsql"
)

func main() {
	db, err := nonstopsql.Open(nonstopsql.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0, 0)

	s.MustExec(`CREATE TABLE account (
		acctno  INTEGER PRIMARY KEY,
		branch  VARCHAR(10),
		balance FLOAT,
		CHECK (balance >= -1000)
	) PARTITION ON ("$DATA1", "$DATA2" FROM 5000)`)
	s.MustExec("BEGIN WORK")
	for i := 0; i < 10000; i += 5 {
		s.MustExec(fmt.Sprintf("INSERT INTO account VALUES (%d, 'br%02d', %d)", i, i%37, i%997))
	}
	s.MustExec("COMMIT WORK")
	s.MustExec("CREATE INDEX acct_branch ON account (branch)")

	show := func(stmt string) {
		plan, err := s.Explain(stmt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("EXPLAIN %s\n%s", stmt, plan)
		db.ResetStats()
		if _, err := s.Exec(stmt); err != nil {
			log.Fatal(err)
		}
		st := db.Stats()
		fmt.Printf("  -> executed in %d messages (%d bytes)\n\n", st.Messages, st.MessageBytes)
	}

	show("SELECT balance FROM account WHERE acctno = 777")
	show("SELECT acctno FROM account WHERE acctno >= 4900 AND acctno < 5100 AND balance > 500")
	show("SELECT * FROM account WHERE branch = 'br07'")
	show("SELECT branch, COUNT(*), AVG(balance) FROM account GROUP BY branch HAVING COUNT(*) > 50 ORDER BY branch LIMIT 3")
	show("UPDATE account SET balance = balance * 1.07 WHERE balance > 0")
	show("UPDATE account SET balance = balance + 10 WHERE acctno = 777")
	show("DELETE FROM account WHERE branch = 'br00'")
}
