package main

// nominalSeconds is the timed-region length the frozen sizes below were
// calibrated to on the reference sandbox (2 CPUs, go1.24.0 linux/amd64; see
// README.md, "Calibration record"). BENCHMARK.json passes it as --seconds.
// A batch workload repeats `sti run` on one frozen input for as long as
// another repetition fits into --seconds, so only the number of repetitions
// behind its medians depends on the clock; a serve workload's script length
// scales with --seconds in proportion. Nothing depends on the number of CPUs.
const nominalSeconds = 30

// childProcs is GOMAXPROCS for every sti child the benchmark starts. GOGC is
// left at the Go default.
const childProcs = 2

// snapshotEvery is serve_durable's checkpoint cadence (-snapshot-every);
// -fsync stays off, so WAL appends are flushed to the OS page cache and only
// checkpoints reach the device.
const snapshotEvery = 64

// preloadChunk is the number of base facts per /apply request during a serve
// workload's set-up.
const preloadChunk = 1000

// scale is one complete set of input sizes.
type scale struct {
	doop   doopSize
	disasm int // instructions
	vpc    vpcSize
	reach  reachSize

	// batchReps caps the timed `sti run` repetitions of a batch workload;
	// below the cap, repetitions are timed for as long as the next one is
	// expected to end within --seconds (never fewer than minBatchReps).
	batchReps int
	// batchSetups is how many times a batch workload generates and writes
	// its inputs and runs the warm-up; setup_s is their median.
	batchSetups int
	// Scripted applies per nominalSeconds of --seconds.
	memApplies     int
	durableApplies int
	// serveSetups is how many times a serve workload starts a fresh server
	// and preloads the base; setup_s is their median and the last instance
	// serves the script.
	serveSetups int

	// Traced runs: scripted applies a serve workload replays in process and
	// over HTTP, and the number of hot-relation tuples the tree, adapter and
	// store probes replay.
	traceApplies int
	probeTuples  int
}

// full is the frozen benchmark scale: a batch repetition takes 3-4.5 s, so
// seven to ten fit into 30 s, and a serve script 22-30 s on the reference
// sandbox.
var full = scale{
	doop:           doopSize{vars: 500, heaps: 122, moves: 830, stores: 160, loads: 195, fields: 12},
	disasm:         9500,
	vpc:            vpcSize{subnets: 300, routes: 1050, instances: 900, ports: 3},
	reach:          reachSize{comps: 2000, nodes: 10, edges: 10, labels: 2, labelPool: 5},
	batchReps:      16,
	batchSetups:    5,
	memApplies:     9500,
	durableApplies: 2500,
	serveSetups:    3,
	traceApplies:   600,
	probeTuples:    200000,
}

// traced shrinks the batch inputs so that one in-process evaluation takes
// about a second: a traced run evaluates each program under seven
// configurations. The serve inputs stay at full scale.
var traced = func() scale {
	s := full
	s.doop = doopSize{vars: 320, heaps: 78, moves: 530, stores: 100, loads: 125, fields: 12}
	s.disasm = 5200
	s.vpc = vpcSize{subnets: 300, routes: 1050, instances: 450, ports: 3}
	return s
}()

// tiny is the unit-test scale: every workload end to end in well under a
// second.
var tiny = scale{
	doop:           doopSize{vars: 120, heaps: 30, moves: 200, stores: 40, loads: 50, fields: 4},
	disasm:         400,
	vpc:            vpcSize{subnets: 30, routes: 90, instances: 60, ports: 2},
	reach:          reachSize{comps: 20, nodes: 8, edges: 8, labels: 2, labelPool: 5},
	batchReps:      1,
	batchSetups:    1,
	memApplies:     40,
	durableApplies: 40,
	serveSetups:    1,
	traceApplies:   20,
	probeTuples:    2000,
}
