"""End-to-end benchmark of the reconfiguration simulator, with per-layer traces.

One command runs one workload for a time budget, checks every output it
produces, and prints every metric by name with its unit::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under benchmark-side wrappers around the public
call of every layer (:mod:`perfbench.tracing`), reports the per-layer
metrics and the tracing overhead, and writes the spans as Chrome trace-event
JSON under ``perfbench/out/`` (``python -m repro obs validate`` accepts it).
Everything is timed from outside the program; ``repro.obs`` telemetry stays
off.  ``perfbench/make_reference.py`` regenerates the stored reference.

Workloads
---------
``registry_suite.warm``
    All 15 registry scenarios (604 simulated epochs per pass) through
    ``run_scenario``, after one untimed warm-up pass; the seed sets the
    order of each pass.  The epoch-loop scoreboard (the Python loop is most
    of a pass), and the only workload with NoC congestion pricing,
    thermal-feedback policies and fluid (staged) migration.  Request: one
    ``run_scenario`` call.
``campaign.cold100``
    100 jobs — ``steady-baseline``, ``diurnal-load``, ``burst-overload``,
    ``duty-cycle-idle`` x chips A-E x the 5 periodic schemes — from a fresh
    directory and an empty cache, then re-run warm in the same directory;
    the seed permutes the axis order.  ``n_jobs=1`` on the ``thread``
    executor (never more than ``nproc``; ``"auto"`` would read the host and
    the repository's perf history).  Measures per-job set-up, steady-mode
    migration accounting, cache and journal writes and then journal replay;
    no NoC pricing and no transient thermal work.  Its ``steady-baseline``
    cells are the Figure 1 grid.  Pass: the cold campaign.  Request: one warm
    re-run (50 per cold campaign).
``serve.windows``
    The ``repro serve --input ... --checkpoint`` path: one closed-loop stream
    on chip E with ``xy-shift`` in transient mode, 64 seeded JSONL windows
    of 8 epochs (per-PE random-walk load, ambient drift, a 2-3 dB SNR band)
    parsed by ``jsonl_windows`` into ``StreamingExperiment`` with a durable
    ``CheckpointStore`` in a fresh directory.  One producer asks for the
    next update only after the previous one returned.  Dominated by the
    transient thermal solve and the stream layer; no NoC pricing.  Pass: one
    stream.  Request: one window, from the request to the returned update,
    including the JSONL parse and the checkpoint write.

Temporary campaign and checkpoint directories are created and removed under
``perfbench/out/``.  The program sees only the generated inputs.

End-to-end metrics (every workload reports all of them)
-------------------------------------------------------
Times are in reference seconds: wall time scaled by the host-speed
calibration described in :mod:`perfbench.harness` (the shared host's speed
drifts by up to ~30% within minutes; raw wall times go to standard error).

``setup_s``
    Median time of 3 fresh processes that import the program, build the
    chips and run the workload's warm-up.
``peak_rss_mb``
    Peak resident memory of the measuring process.
``epochs_per_s``
    Simulated epochs per second of pass time.
``success_frac``
    Checked operations that matched their reference, over those attempted.
``pass_s_p50``, ``pass_s_p90``
    Time of one pass.
``request_ms_p50``, ``request_ms_p99``
    Time of one request.
``fig1_xy_shift_err_c``, ``fig1_rotation_err_c``
    ``|average Figure 1 reduction - PAPER_AVERAGE_REDUCTIONS|`` in deg C.
    Paper accuracy does not depend on the workload: every run ends by
    evaluating the Figure 1 grid (the campaign's ``steady-baseline`` cells)
    and checking each cell against the reference.

Every workload reports every metric, and no metric may read 0, so the
failure fraction is reported as ``success_frac`` (``failed_frac = 1 -
success_frac``) and the serve window latencies are the ``request_ms``
percentiles of ``serve.windows``.  The campaign's job rates follow from the
fixed 100-job grid: cold jobs per second is ``100 / pass_s`` (equivalently
``epochs_per_s * 100 / 4225``) and replayed jobs per second is ``100 /``
the request time.

Correctness
-----------
Every request is an operation whose output is checked; a mismatch or an
exception counts toward ``failed`` (and ``1 - success_frac``).

* Registry results match ``reference.json`` to a relative 1e-9 (settled and
  baseline statistics, every epoch's peak, decoder and NoC summaries), and
  each scenario's steady-solve and ``transient_sequence`` counts equal
  ``expected_steady_solves()`` and its mode's single sequence call.
* Every cold campaign job matches ``reference.json``; every warm re-run
  evaluates 0 jobs and returns identical ``JobResult`` objects.
* Every served window's per-epoch peak and mean temperatures, and every
  stream's final result, equal the same windows run as one whole-horizon
  batch window to 1e-9 (the batch is given the stream's warm-start power),
  for any seed.
* Per-pass solver counts (``thermal.steady_solve_count``,
  ``thermal.transient_sequence_count``) repeat exactly.

Per-layer metrics and predictions
---------------------------------
Layers are named ``<module>.<call>`` and report ``.calls``, ``.self_s`` (span
time minus child spans) per pass and ``.errors``.  Each is expected to move:

* ``core.experiment.step_window``, ``core.policy.decide``,
  ``core.controller.{apply_migration,advance_plan,epoch_power_vector}``,
  ``power.trace.add_interval``, ``core.controller.migration_cache_hit_ratio``
  -> ``pass_s_p50`` and ``epochs_per_s`` on ``registry_suite.warm`` and the
  cold pass on ``campaign.cold100``; a small share of ``serve.windows``.
* ``migration.congestion_factor``, ``noc.cost_probe``
  (``NocCostModel.probe``), ``noc.rate_latencies`` -> ``registry_suite.warm``
  only; 0 calls on the other two workloads, where the prediction is no
  change.
* ``thermal.transient_sequence`` (``.intervals``) -> ``request_ms_p50`` and
  ``epochs_per_s`` on ``serve.windows``; ``thermal.steady_temperatures``
  (``.rows``) -> ``campaign.cold100``.  Solver counts repeat exactly.
* ``stream.parse``, ``stream.checkpoint_save`` (``.bytes``) ->
  ``request_ms_p50`` and ``request_ms_p99`` on ``serve.windows``.
* ``campaign.{job_keys,cache_put,journal_append}`` -> the cold pass;
  ``campaign.cache_get`` and ``campaign.replay`` -> warm re-run requests.
* ``scenarios.compile_scenario`` -> the cold pass and ``pass_s_p50`` of the
  registry suite.
* ``ldpc.decoder_effort``, ``ldpc.decode_batch``, ``ldpc.probe_hit_ratio``
  -> ``setup_s``, and ``request_ms_p99`` when a new SNR bucket first
  appears mid-stream.
* ``bench.unattributed.self_s`` is request time outside every listed layer;
  ``trace.overhead_frac`` is ``1 - traced/untraced epochs_per_s``.

First baseline
--------------
Medians of 10 runs per workload (seeds 101-110, 30 s each) on the 2-vCPU
2.1 GHz Xeon VM, times in reference seconds, with the spread (interquartile
range over median) in brackets:

=================  ===================  ==================  ==================
metric             registry_suite.warm  campaign.cold100    serve.windows
=================  ===================  ==================  ==================
setup_s            0.587 (0.09)         0.949 (0.41)        0.615 (0.08)
peak_rss_mb        71.3 (0.002)         76.3 (0.003)        74.0 (0.016)
epochs_per_s       5060 (0.018)         7450 (0.100)        2699 (0.067)
pass_s_p50         0.118 (0.015)        0.551 (0.082)       0.186 (0.066)
pass_s_p90         0.133 (0.076)        0.646 (0.134)       0.227 (0.072)
request_ms_p50     4.86 (0.038)         5.24 (0.075)        2.71 (0.063)
request_ms_p99     47.1 (0.061)         8.97 (0.056)        8.06 (0.113)
=================  ===================  ==================  ==================

``success_frac`` read 1.0 on every run, ``fig1_xy_shift_err_c`` 0.0874 and
``fig1_rotation_err_c`` 1.4224 (paper 4.62 and 4.15 deg C).  A second set
(seeds 201-210) moved no median by more than 13% (``setup_s`` included) and
no p50 by more than 4%; its largest spreads were campaign ``request_ms_p99``
0.165 and registry ``setup_s`` 0.185.

Traced runs (seed 31, per pass, reference ms) bear out the predictions.
On ``registry_suite.warm`` (125 ms of requests) ``core.controller.*`` plus
``core.experiment.step_window`` hold 52% of self time (apply_migration 27.2,
step_window 26.5, epoch_power_vector 10.7, advance_plan 1.3);
``noc.cost_probe`` is next at 30% (98 calls, 37.0 ms — a larger share than
expected, all in the NoC-priced scenarios); the thermal solves hold 8%.  On
``campaign.cold100`` (900 ms: the cold campaign plus 50 re-runs)
apply_migration is 23%, request time outside the listed layers 19%,
step_window 17%, ``campaign.job_keys`` 12% and ``campaign.cache_put`` 7%.
On ``serve.windows`` (190 ms) ``thermal.transient_sequence`` is the largest
layer at 47%, ``stream.checkpoint_save`` 16% (fsync), ``stream.parse`` 4%.
``noc.cost_probe``, ``noc.rate_latencies`` and ``migration.congestion_factor``
show 0 calls on the campaign and the stream.  Solver counts per pass: 37
steady solves and 4 ``transient_sequence`` calls (registry), 100 steady
solves (campaign), 2 and 64 (stream).  Tracing costs 4-5% of epochs_per_s.
"""
