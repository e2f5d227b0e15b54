"""One module per workload.

Each module defines NAME, KNOWN_DEFECTS (violation name -> reason) and
    make_round(seed, j) -> list of plain, JSON-serialisable op inputs
    op_class(inp) -> str         the op's class, for per-class latencies
    setup(workdir, seed) -> ctx  imports the program, fixes shared inputs
    warmup(ctx, seed)            pays first-call costs on inputs no timed op uses
    prepare(ctx, inp) -> args    builds program objects; not part of the latency
    run_op(ctx, args, tracer) -> out
    check(ctx, inp, args, out, exc) -> list of violation names
    attribute(ctx, inp, args, out, tracer)   traced runs only
    extras(ctx, tracer)                      traced runs only, at the end
ROUND_S (a round's typical wall time on the host that defined the
benchmark, which with --seconds fixes the round count), and optionally MIN_ROUNDS (default 1) and PEAK_RSS_OF
("self" or "children").
"""

WORKLOADS = ("unitary_sweep", "trajectory", "protocol", "cli_cold")
