#!/bin/sh
# The change gate: everything must build, vet clean, and pass the full
# test suite under the race detector. `make check` runs this script.
# Before the full run, focused runs fail first and alone; each test runs
# once per package and race mode among them, so a block's comment may name
# a test that an earlier line (often its whole package) already ran.
set -eux
cd "$(dirname "$0")/.."
go build ./...
go vet ./...
# The wall-clock benchmark is its own module compiled against these
# packages, and nothing else here builds it: a change that deletes or
# renames what it drives fails here, before anything runs. Then every
# exported function and method has a caller outside the tests (an export
# only a test calls lives in its package's export_test.go).
(cd benchmark && go build ./... && go vet ./...)
go test -count=1 -run TestEveryExportHasACaller .
# The counted books: the exact columns of the message-count experiments
# against testdata/quick.golden. Under two seconds, so a counted integer
# that moved fails first and alone. Then the one front end, and the one
# program that prints EXPLAIN next to live message counts, so neither can
# rot.
go test -count=1 -run 'TestExperiments/(E1|E2|E3|E4|E6|E10|E17|F1|F2|ABL-PAIRS)$' ./internal/experiments
go run ./cmd/experiments -quick -only E1 >/dev/null
go run ./examples/explain >/dev/null
# Message-system and observability races first: StopServer/Send hammers,
# panic recovery, reply timeouts, and the concurrent histogram-merge
# property. The traffic counters are atomic adds, not a mutex every
# message of every session takes: beside the hammer, senders on three
# distance classes while a reader takes snapshots (never a reply whose
# request it misses; exact once idle). The full suite runs them again, but
# a regression in the layers everything else talks through should fail
# alone, fast.
go test -race -count=1 ./internal/msg ./internal/obs
# B-tree pages are read where they lie in the cache: views pin a slot
# for as long as the slices they hand out live, the offset table is
# published on the slot without a lock, and leaf-local writes splice
# bytes under readers' feet — the racy seams of PR 15. The two packages
# alone under -race first; then the allocation ceilings (the race
# detector allocates, so that test only counts without it) and ten
# seconds of hostile bytes against the walk every page access rests on.
go test -race -count=1 ./internal/btree ./internal/cache
go test -count=1 -run TestAllocationCeilings ./internal/btree
go test -run '^$' -fuzz FuzzPageView -fuzztime 10s ./internal/btree
# One layer up, records are read where they lie too (PR 17): a
# record.View borrows the cell bytes the B-tree lends the Disk Process a
# leaf at a time (btree.Run), the Disk Process reads fields through it —
# typed, straight from the encoded bytes — and copies whatever outlives
# the leaf's turn. The Subset Control
# Block holds the predicate compiled (PR 23): FIELD op CONSTANT conjuncts
# are comparisons on the encoded field, everything else is handed to
# expr.eval reading through the View. Same three checks: the two packages
# under -race (property tests: View == Decode through every accessor, one
# value validator == the old one-body decoder, the compiled Program ==
# evaluating on a View == evaluating on a Row in keep/reject and error
# text, the two-cursor LIKE == the old memoised one), the Disk Process's
# allocation ceilings without -race — compiling costs ^FIRST a constant
# and a ^NEXT nothing — with one pass of the per-record benchmark so it
# cannot rot, and ten seconds of hostile bytes against the frame walk and
# the typed peeks. record.Decode and expr.Eval/Satisfied(Row) keep their
# signatures beside the View — the same value validator and reader under
# Decode, and eval as the Row callers' evaluator, the Program's generic
# conjunct and the reference the Program is held to — because some
# consumers still keep the rows they decode: the executor's materialised
# path (joins, sorts, expressions, requester-side aggregates, the rows an
# index probe keeps: access.decode), the File System's requester-side
# writes (Rows.Next, Read), ENSCRIBE, the in-process edge of
# Session.Exec and the client's DecodeReply (both record.AppendDecode,
# whose nil-destination case Decode is). A pass-through SELECT's rows are
# decoded by none of the server's layers (PR 24, below). And
# benchmark/layers.go, which a performance change may not edit, times
# exactly those two signatures.
go test -race -count=1 ./internal/record ./internal/expr
go test -count=1 -run TestAllocationCeilings ./internal/dp
go test -run '^$' -bench BenchmarkSubsetRecord -benchtime 1x ./internal/dp
# A leaf is decoded once per version (DESIGN.md §7.1, §7.2): the first
# multi-record scan of a leaf also publishes its scan part — a copy of its
# last key and a slot per field every record has — and a column is built
# when a scan first asks for it; a splice drops them with the record
# table. The Disk Process judges an all-numeric predicate and folds an
# INTEGER-keyed COUNT/SUM/MIN/MAX from columns, and points at a record only
# when something reads it. Twenty rounds under -race of column scanners
# against writers splicing the same leaves, every entry held to a fresh
# decode; the sidecar's lifetime across a splice; the column path against
# the row path over random records (NULL, NaN, ±0, INTEGER and FLOAT
# mixed, VARCHAR and BOOLEAN in some, short records, hostile ordinals),
# reply bytes and counters; and the column evaluator's seed corpus against
# Program.Satisfied. (FuzzPageView, above, holds the fewest-fields count
# and every column of arbitrary pages to record.Decode.)
go test -race -count=20 -run 'TestColumnsUnderConcurrentSplices' ./internal/btree
go test -count=1 -run 'TestScanPartFollowsTheLeaf' ./internal/btree
go test -count=1 -run 'TestColumnPathMatchesRowPath|TestAbortedTransactionIsNotJoinedAgain|TestNoKindJoinsAnAbortedTransaction' ./internal/dp
go test -count=1 -run 'FuzzColumnTests|TestColumnTestsMatchSatisfied' ./internal/expr
# A report allocates only what its client keeps (DESIGN.md §7.4): a
# subset conversation's messages are served from the Disk Process's
# service slots — a free list, not a per-processor pool, so the counts are
# exact at any GOMAXPROCS — in Subset Control Blocks it takes from a free
# list with their arenas, and encoded and decoded in arenas the SQL statement owns,
# beside its row list and its one group table (fsdp.GroupTable). The Disk
# Process's ceilings just above include whole GET, COUNT and AGG
# conversations through the Handler at zero. Without -race: what one
# report — the benchmark's GROUP BY and filtered scan — allocates in
# process, the same over half the span and under a row budget that more
# than triples the re-drives. Then twenty rounds under -race of reports
# on four sessions while other conversations end early on the same Disk
# Processes (a LIMIT's CLOSE^SUBSET, a predicate that fails mid-
# conversation, an abort that retires an SCB), every result checked
# against the loaded values. Beside them, twenty rounds of an ordered
# parallel scan whose conversation fails while its worker is held before
# it records the failure: the consumer that sees the span end must see
# the error, not a truncated result.
go test -count=1 -run TestReportAllocationCeilings ./internal/sql
go test -race -count=20 -run TestReportsWhileConversationsEndEarly ./internal/sql
go test -race -count=20 -run TestOrderedScanReportsItsFailedSpan ./internal/fs
go test -run '^$' -fuzz FuzzRecordView -fuzztime 10s ./internal/record
# A predicate, a CHECK constraint and a SET list reach the Disk Process as
# bytes off the network: ten seconds of hostile ones against expr's two
# decoders (a count bounded by the bytes behind it, nesting capped — a
# stack overflow is fatal, no recover catches it — and ordinals in range),
# and whatever decodes as a predicate is compiled and run against whatever
# the second input decodes to as a record, three ways.
go test -run '^$' -fuzz FuzzExpr -fuzztime 10s ./internal/expr
# Durability has one mechanism now (PR 18): every force point is one
# leader/follower wait in wal.Trail, whose leader packs, writes and syncs
# with the trail mutex RELEASED — the packing state is safe only because
# there is one flusher at a time — and tmf/dp skip the prepare force when
# the participant's trail is the coordinator's. Both packages alone under
# -race first (gated-device tests: N committers behind one flush, Append
# and Close against a blocked flush, the sync-per-commit leg; the crash
# sweep around the unforced prepare). Then ten seconds of hostile bytes
# against the audit frame's two outside readers: Decode, which a backup
# runs on shipped records, and Scan, which recovery runs over a torn
# tail. Then the cache race that only shows
# once commits stop parking for 10 ms: a loader stuck making room while a
# second miss on the same block installs a second Page and an update is
# lost — the deterministic regression twenty times over, and the
# benchmark's txn-file shape (two-volume transfers, a pool far smaller
# than the table) checked for conservation of money — two seconds without
# the race detector, which is what caught the bug nine runs in ten before
# the fix (the detector's slowdown closes the window), then briefly with.
# Beside the loader race, twenty rounds of write-behind's policy: a pass
# cleans only the eviction end of a full pool (aged pages in the quarter
# nearest eviction), never a pool with free slots, never a page touched
# every pass; under random updates no eviction waits on a write; and the
# write-behind crash point is reached only by a pass that claimed a page.
go test -race -count=1 ./internal/wal ./internal/tmf
go test -run '^$' -fuzz FuzzWALRecord -fuzztime 10s ./internal/wal
go test -race -count=1 -run 'TestPrepareOn|TestCrashAroundUnforcedPrepare' ./internal/dp
go test -race -count=20 -run 'TestOneLoaderPerBlock|TestNudge|TestBackgroundWriterCleansTheEvictionEnd|TestRandomUpdatesWriteLessThanTheyDirty|TestWriteBehindPointNeedsAClaim' ./internal/cache
go test -count=1 -run TestMoneyConservedUnderEviction ./internal/cluster
go test -race -short -count=1 -run TestMoneyConservedUnderEviction ./internal/cluster
# The FS-DP conversation: one driver fans every set-oriented kind out
# across partition goroutines (shared span accounting, the AGG^FIRST/NEXT
# group map, PROBE^BLOCK partial re-sends, scanner channels) and one DP
# skeleton validates every ^NEXT against its SCB — run focused, with the
# failed-conversation and foreign-SCB regressions, before the full suite.
# The AGG^FIRST/NEXT groups ride on the SCB from message to message (PR
# 21): the counted conversation tests (messages per row budget, a reply
# never over a block and one entry, budget-ended messages empty, a lost
# SCB fails the statement) run here too, and ten seconds of hostile bytes
# go against the four fsdp decoders, whose element counts are now bounded
# by the bytes behind them.
go test -race -count=1 -run 'TestConversationDriver|TestFailedConversationRetiresSCB|TestParallelScan|TestAgg|TestProbe|TestReadByIndexBatch|TestScanLimit' ./internal/fs ./internal/fsdp
go test -race -count=1 -run 'TestNextRefusedOnForeignSCB|TestVSBBRedriveProtocol|TestUpdateSubsetRedrive|TestConcurrentMixedWorkload|TestAgg' ./internal/dp
go test -run '^$' -fuzz FuzzFsdp -fuzztime 10s ./internal/fsdp
go test -race -count=1 -run 'TestAggPushdownDifferential|TestJoinProbeDifferential|TestLimitPushdownMessages|TestExplainIsThePlan' ./internal/sql
# A unique key is a READ (PR 22). The compile-time key against the
# run-time range (property test; a FLOAT constant on an INTEGER key is
# stated over the integers on both, and KEY op f == KEY + 0 op f) ran with
# the expr package under -race above. Here: READ
# against the range form over the unique-key corpus, what a READ locks (two
# sessions, one waiting on the other's lock), which Disk Process of a pair
# serves a browse READ, a rowless OK refused, SUM of a column that is no
# number refused at bind time — under -race; then what one prepared point
# SELECT allocates, without it.
go test -race -count=1 -run 'TestPointRead|TestExplainAnalyzeRead|TestFloatBoundOnIntegerKey|TestSumOfNonNumericColumnRefused' ./internal/sql
# An in-transaction read locks the span it read before it replies: a range
# SELECT, a COUNT, a pushed GROUP BY and a batched join probe whose group
# lock waits for another transaction's uncommitted change — one that makes
# a record qualify, or takes it away — return the committed state once it
# ends, never what they read before the wait (the message is read again
# under the lock; an AGG's fold is rewound first). And −0.0 is +0.0 as a
# key: one GROUP BY group, found through an index, a duplicate primary key.
# A message of any kind whose transaction aborts while it waits at a lock
# — a read's group lock, a subset write's, a record message's or a block's
# record lock, an explicit lock — does not join the finished transaction
# again: each fails, what it named reads as committed, and no transaction
# state and no lock is left behind. A write whose transaction aborts after
# its change is in the tree and before its undo entry is kept
# (fault.DPBeforeUndo) is taken back, newest first with the rest of the
# transaction's changes, twenty rounds.
go test -race -count=1 -run 'TestReadIsolation|TestNegativeZero' ./internal/sql
go test -race -count=1 -run 'TestReadsAgainUnderTheGroupLock|TestAcquireReportsTheWait|TestAbortedTransactionIsNotJoinedAgain|TestAbortedSubsetWriteIsNotJoinedAgain|TestNoKindJoinsAnAbortedTransaction' ./internal/dp ./internal/lock
go test -race -count=20 -run 'TestAbortBeforeUndoTakesTheWriteBack' ./internal/dp
# A keyed write is one descent (btree.Tree.Edit): the primitive against a
# reference map while point reads and scans run over the same leaves,
# records growing past their leaf and leaves emptying (its split and
# collapse fallbacks, the edit function run once); and a refused
# duplicate INSERT leaves nothing on the trail — after recovery and after
# a replicated group's takeover the committed row is the one that reads,
# whether the refusing transaction committed or aborted. A buffer-full
# audit flush that a write starts waits for the leaf's latch to be
# released: a point read of the leaf is served while it is held. Then,
# without -race, what a DebitCredit transaction and an empty BEGIN/COMMIT
# pair allocate in process.
go test -race -count=1 -run 'TestEditProperty|TestEditFallbackRunsTheAnswer' ./internal/btree
go test -race -count=1 -run 'TestRejectedDuplicateInsertLeavesNoTrace|TestRejectedDuplicateInsertOnTheBackup|TestBufferFullFlushRunsOffTheLatch' ./internal/dp ./internal/cluster
go test -count=1 -run TestTransactionAllocationCeilings ./internal/sql
go test -race -count=1 -run 'TestReadRefusesARowlessOK' ./internal/fs
go test -count=1 -run TestAllocationCeilings ./internal/sql
# A transaction allocates only what it keeps (DESIGN.md §7.4): write and
# commit messages are built in arenas with owners, and the Disk Process
# works in its service slots. The lock table holds a file's point grants
# apart from its ranges, each with its key's hash, takes grants from a free
# list, and a release wakes only the waiters that wait for it: five rounds
# of the package under -race — the conflict set against a brute-force scan
# over random point, prefix, range and file locks and releases, a re-lock
# that adds no grant, a waiter left parked by an unrelated release — then
# one pass of its benchmark so it cannot rot. The two ceilings this rests
# on, a keyed write through the Handler (internal/dp's
# TestAllocationCeilings) and the DebitCredit transaction, ran without
# -race just above.
go test -race -count=5 ./internal/lock
go test -run '^$' -bench BenchmarkLockAcquireRelease -benchtime 1x ./internal/lock
# Virtual blocks to the client edge (PR 24): a pass-through SELECT's rows
# cross the File System, the executor and the "$SQL" endpoint as the Disk
# Processes encoded them and are validated by the first reader of a value.
# Under -race (the nsqlwire side runs with its package in the wire block
# below): every pass-through shape beside a twin forced down the
# materialised path (rows, FS-DP messages and bytes, locks, ad hoc ==
# prepared, pushdown on == off, browse), the projection EXPLAIN prints,
# session == "$SQL" in process == TCP in reply bytes over four partitions
# at ScanParallel 0, 1 and 4, and reply rows damaged between Disk Process
# and File System stopping at the first decoder with every session and
# connection intact. Without it: a served point read's allocation
# ceiling, client and server together (the scan's — per message, not per
# row — is in internal/sql's TestAllocationCeilings just above, the
# one-arena reply's in internal/nsqlwire's, with the wire edge below), and
# one pass of the scan benchmark so it cannot rot.
go test -race -count=1 -run 'TestPassThrough|TestPreparedDifferentialMatrix' ./internal/sql
go test -race -count=1 -run 'TestPassThroughTransports|TestHostileRowsStopAtTheDecoder|TestPreparedDifferentialMatrixTCP' .
go test -count=1 -run TestAllocationCeilings .
go test -run '^$' -bench BenchmarkPassThroughScan -benchtime 1x ./internal/sql
# Deterministic short crash-point sweep first: every named fault point
# fired, recovery invariants checked per point. Runs again inside the
# full suite, but a recovery regression should fail here, fast and
# alone, before the long run starts.
go test -race -short -run TestRecoveryTorture ./internal/experiments
# File-backed volumes: the async I/O scheduler keeps coalescing,
# absorption, and fsync-generation state under one mutex with four
# condvars — the racy seam of PR 7. Hammer it focused, then run the
# quick kill -9 crash-recovery pass against real on-disk files. Block
# images are pooled (disk.NewBlock/FreeBlock): a queued image goes back to
# the pool when it is absorbed or lands, so a reader copies it out under
# the scheduler's mutex — twenty rounds of readers racing writers over the
# same blocks, with the race build poisoning every freed buffer. Then ten
# seconds of hostile header bytes against Open, and the allocation
# ceilings of the block path (cache and scheduler) with the wire's below.
go test -race -count=1 -run 'TestSchedRace|TestFsyncBatching|TestWriteAbsorption|TestHeaderWrittenWhenItChanges' ./internal/disk/filevol
go test -race -count=20 -run TestReadsNeverSeeARecycledImage ./internal/disk/filevol
go test -run '^$' -fuzz FuzzVolumeHeader -fuzztime 10s ./internal/disk/filevol
QUICK=1 go test -race -count=1 -run TestKillRecovery ./internal/experiments
# Wire transport: framing, pipelined correlation, drain, reconnect, and
# the client pool's deadline/redial races — the concurrent seams of
# PR 8 — and the socket's force point (PR 20): one leader/follower frame
# flush, wire.Writer, behind every send at both ends, whose leader writes
# with the mutex RELEASED (held-socket tests: N frames behind one write,
# a lone sender, a failed write failing its whole batch and the redial,
# followers blocking at the cap, a drain delivering every accepted
# reply). The flush has no timer, and neither has the audit trail's
# (internal/wal/trail.go, below): grep says so. Then ten seconds of
# hostile bytes against each decoder at the front door, and the
# allocation ceilings of the wire edge without -race (the detector
# allocates): codecs that allocate once — the FS-DP request encoder
# among them — one EXECUTE round trip over an in-memory pipe, and a
# message hop that allocates nothing. Then the
# differential test: the same workload over in-process and TCP
# transports must be byte-identical with identical accounting. First,
# twenty rounds of the client pool's own seams: a request joining the
# flush already forming on a connection, the fallback to the next
# connection in turn, and the per-connection deadline sweep against
# replies, late replies, a deadline changed between sends and replies racing their
# deadlines from many senders.
go test -race -count=20 -run 'TestPoolJoinsTheFlushForming|TestPoolFallsBackToTheNextConnection|TestPoolSweepsDeadlines|TestPoolDeadlinesRaceReplies' ./internal/nsqlclient
go test -race -count=1 ./internal/msg/wire ./internal/nsqlclient ./internal/nsqlwire
if grep -n 'time\.\(After\|NewTimer\|Sleep\|Tick\)' internal/msg/wire/writer.go internal/wal/trail.go; then exit 1; fi
go test -run '^$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/msg/wire
go test -run '^$' -fuzz FuzzNsqlwire -fuzztime 10s ./internal/nsqlwire
go test -count=1 -run TestAllocationCeilings . ./internal/nsqlwire ./internal/nsqlclient ./internal/msg ./internal/fsdp ./internal/cache ./internal/disk/filevol
go test -race -count=1 -run 'TestServeSQL|TestDifferentialTransport' .
# Every byte on the served read path has one owner that reuses it
# (DESIGN.md §7.4): pooled frame buffers at both ends of a connection,
# the client's pooled payload buffer, the session's statement arena
# (reset when its next statement starts, so "$SQL" encodes the reply
# before it gives the session back), the Disk Process's service slots.
# The allocation ceilings above hold the counts — a served point read 12,
# the endpoint alone 3, codecs into reused buffers 0. Here, twenty rounds
# under -race, where every buffer taken back is poisoned: results of
# three shapes held in process and over TCP while 1 000 more statements
# run on the same session and connection must not change; and ten rounds
# of eight clients sharing two sessions, whose replies must each carry
# their own row — a session given back before its reply is encoded
# fails most rounds. The Into
# decoders' reuse ran against fresh decodes in FuzzFsdp and FuzzNsqlwire
# above. Then the operator's commands refused by a default server and
# served with AdminOps, and a takeover re-drive woken by the name's
# registration, not a poll.
go test -race -count=20 -run TestHeldResultsOutliveLaterStatements .
go test -race -count=10 -run TestRepliesAreEncodedBeforeTheSessionIsReused .
go test -race -count=1 -run TestAdminOpsAreGated .
go test -race -count=1 -run TestRedriveWakesOnRegistration ./internal/fs
# Compiled statements: the shared plan cache takes concurrent get/put
# from every session while DDL bumps the catalog version, and the
# server's handle table takes concurrent PREPARE/EXECUTE/eviction —
# the racy seams of PR 9. Hammer them focused. The differential matrix
# (ad-hoc and prepared execution byte-identical, in process and over
# TCP) ran in the pass-through block above.
go test -race -count=1 -run 'TestPlanCacheDDLRace|TestPlanCacheCounters' ./internal/sql
go test -race -count=1 -run 'TestPreparedOverTCP|TestStaleHandleReprepare|TestWireErrorClasses' .
# Replicated partition groups: the checkpoint stream's shipper/replica
# pair runs under every commit while takeover repoints names and the
# fence refuses re-driven work — the racy seams of PR 10. The group
# tests (catch-up, takeover — after an abort too — a takeover refused
# when catch-up fails, the wire-to-wire differential), then the
# statement-lifecycle regressions: EXECUTE racing DDL and a connection
# killed mid-write. (A frame landing in the drain window is a msg/wire
# test, run with its package above.)
go test -race -count=1 -run 'TestReplica|TestTakeoverRefusedWhenCatchUpFails|TestWireReplicationDifferential|TestFollowerBrowseReads' ./internal/cluster
# A backup's transactions live in its Disk Process's one transaction table
# (DESIGN.md §16): a promotion — the mid-abort stream, a relock that fails
# and is retried — and, twenty rounds each, a retried promotion that undoes
# nothing twice and a fenced transaction that every kind, PREPARE and a
# subset's ^FIRST find refused, COMMIT refused and ABORT freeing it. Then
# twenty rounds of a two-node commit that keeps its rows when its second
# node's volume restarts: the outcome is on the coordinator's trail.
go test -race -count=1 -run 'TestPromote' ./internal/dp
go test -race -count=20 -run 'TestPromoteRetryUndoesNothingTwice|TestFencedTransactionRefusesEveryKind' ./internal/dp
go test -race -count=20 -run 'TestCrossNodeRestartKeepsACommit' .
go test -race -count=1 -run 'TestExecuteDDLRace|TestKillConnMidWrite' .
# A leaf's records are walked once per page version, not once per visit:
# the first multi-record scan of a leaf builds its record table beside the
# cell table in the cache slot, a leaf splice drops it, and the Disk
# Process's callbacks point their View at a record's starts instead of
# walking it. The btree, expr and record sides — record scanners building
# and publishing the tables of leaves that writers are splicing, callbacks
# that cannot write the shared table, corrupt pages refused with the page
# named, the exact INTEGER/FLOAT comparison with NaN unknown on both sides
# of a key bound — and the allocation ceilings (a warm record scan builds
# no table; a write costs one) ran with their packages above. Here, under
# -race: a record garbled on a file-backed volume and read by demand read
# and by pre-fetch, and MIN/MAX and key order over the same comparison.
# Then one pass of the per-row scan benchmark so it cannot rot.
go test -race -count=1 -run 'TestCorruptRecordIsRefusedAtThePage|TestRepliesDoNotAliasCachePages|TestTimeLimitRedrive' ./internal/dp
go test -race -count=1 -run 'TestMinMaxIgnoresFeedOrder|TestFloatOrderProperty' ./internal/fsdp ./internal/keys
go test -run '^$' -bench 'BenchmarkScanRow' -benchtime 1x ./internal/btree
# A keyed write is one request: an UPDATE or DELETE that pins the whole
# primary key sends UPDATE^KEY / DELETE^KEY, which locks the key before it
# reads the record, and the subset writes judge each record again once its
# lock is granted — one mutate path (dp.writeLocked) for every write but
# INSERT. Under -race: the wrong answers this closed (another transaction's
# rolled-back change written through a subset UPDATE or DELETE, or a keyed
# UPDATE), the keyed outcomes at the Disk Process, the SQL-level isolation
# test, EXPLAIN and EXPLAIN ANALYZE of keyed writes, and the differential
# matrix holding every keyed form to its one-key-range twin (affected rows,
# tables, audit images byte for byte; autocommit, a transaction, TCP). Then
# one pass of the benchmark comparing the keyed request with the one-key
# subset it replaced, so it cannot rot.
go test -race -count=1 -run 'TestSubsetWritesRecheckUnderLock|TestKeyedUpdateLocksBeforeItReads|TestKeyedWrite' ./internal/dp
go test -race -count=1 -run 'TestKeyedWriteIsolation|TestExplainAnalyzeKeyedWrite' ./internal/sql
go test -race -count=1 -run 'TestKeyedWriteDifferential' .
go test -run '^$' -bench BenchmarkKeyedUpdate -benchtime 1x ./internal/dp
# One row currency and one aggregate body in the requester. An index
# probe's records come back encoded, and the requester checks and cuts
# them in the step a READ's go through (access.admit), so a probe SELECT
# can be pass-through. A requester-side GROUP BY folds through
# fsdp.AggPartial, the Disk Process's partial state, with DISTINCT a set in
# front of it. Under -race: aggregate results worked out by hand (empty
# input, NULLs, the type of a SUM, AVG, MIN/MAX of VARCHAR, COUNT(DISTINCT)
# with NULLs); a DISTINCT aggregate's own name in its header, HAVING and
# ORDER BY; SUM/AVG of truth values refused at bind time. (The aggregate,
# join and pass-through differentials, the TCP matrix with requester-side
# writes through an index, and damaged probe rows refused by the requester
# ran in the blocks above.) Then one pass of the requester-side GROUP BY
# and join benchmarks so neither can rot.
go test -race -count=1 -run 'TestAggregatesByHand|TestDistinctAggregateKeepsItsName|TestSumOfTruthValuesIsRefused' ./internal/sql
go test -race -count=1 -run 'TestFloatBoundAndNonNumericSumOverTCP' .
go test -run '^$' -bench 'BenchmarkRequesterGroupBy|BenchmarkPreparedJoin' -benchtime 1x ./internal/sql
# The Disk Process's aggregate step touches only what the record adds. A
# lone INTEGER group key is probed by its int64 (the int path), every other
# key by its key bytes (the byte path), and a record.View pointed at a
# record's starts borrows them (one 16-bit offset width). Under -race:
# hostile aggregate specifications refused with ErrBadRequest by the Disk
# Process and by the decoder, and the encoders canonical. Everything else
# this rests on ran above: the int path's reply entries held byte for byte
# to fsdp.AppendGroup's (the TestAgg run of the FS-DP block); a lent starts
# table no Reset writes and the 65 535-byte bound (internal/record); the
# pushdown differential and both prepared matrices; the allocation
# ceilings (an INTEGER-key AGG costs nothing per record once its groups
# exist, a PROBE^BLOCK nothing per probe) and the per-record and
# batched-join benchmarks.
go test -race -count=1 -run 'TestHostileAggSpecsAreRefused' ./internal/dp
go test -race -count=1 -run 'TestEncodersAreCanonical|FuzzFsdp' ./internal/fsdp
go test -race ./...
# The wall-clock benchmark is its own module compiled against these
# packages, so nothing above builds it: its smoke test is what notices a
# change that breaks the API it drives.
(cd benchmark && go test ./...)
