"""Command-line interface: ``python -m repro
tune|sweep|estimate|serve|jobs|experiments|validate|columnstore``.

Examples::

    python -m repro tune --dataset tpch --scale 0.2 --budget 0.15 \
        --variant dtac-both --select-weight 10
    python -m repro sweep --dataset sales --budgets 0.1,0.2,0.3 \
        --seeds 1,2 --workers 4 --cache-dir .repro-cache
    python -m repro estimate --dataset tpch --scale 0.2
    python -m repro serve --dataset sales --scale 0.1 --port 8765 \
        --cache-dir .repro-cache
    python -m repro jobs submit --context sales --budget 0.15 --follow
    python -m repro jobs events job-000001
    python -m repro jobs cancel job-000001
    python -m repro experiments --only table4_graph_quality
    python -m repro validate --dataset tpch --budget 0.3
    python -m repro columnstore --dataset tpch --budget 0.25
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from repro.advisor import algorithms, variant_names, variants
from repro.advisor.advisor import OPTION_RULES, check_seed
from repro.api import Session
from repro.checks import check_budget, check_count, check_path
from repro.datasets import (
    sales_database,
    sales_workload,
    tpch_database,
    tpch_workload,
)
from repro.errors import AdvisorError


def _make_dataset(name: str, args):
    if name == "tpch":
        db = tpch_database(scale=args.scale, z=args.zipf)
        wl = tpch_workload(db, select_weight=args.select_weight,
                           insert_weight=args.insert_weight)
    elif name == "sales":
        db = sales_database(scale=args.scale)
        wl = sales_workload(db, select_weight=args.select_weight,
                            insert_weight=args.insert_weight)
    else:
        raise SystemExit(f"unknown dataset {name!r}")
    return db, wl


def _make_session(args, db, wl) -> Session:
    """One facade session per CLI invocation, owning the option
    defaults the subcommands share."""
    return Session(
        db, wl,
        variant=args.variant,
        cache_dir=args.cache_dir,
        algorithm=args.algorithm,
        enable_partial=getattr(args, "all_features", False),
        enable_mv=getattr(args, "all_features", False),
        delta_costing=not args.full_recost,
    )


def cmd_tune(args) -> int:
    db, wl = _make_dataset(args.dataset, args)
    budget = db.total_data_bytes() * args.budget
    result = _make_session(args, db, wl).tune(budget_bytes=budget)
    print(f"database {db.name}: {db.total_data_bytes() / 1024:.0f} KiB raw")
    print(f"variant {args.variant}, algorithm {args.algorithm}, "
          f"budget {budget / 1024:.0f} KiB")
    print(f"improvement {result.improvement_pct:.1f}% "
          f"({result.base_cost:.0f} -> {result.final_cost:.0f}), "
          f"consumed {result.consumed_bytes / 1024:.0f} KiB, "
          f"{result.elapsed_seconds:.1f}s")
    ks = result.kernel_stats
    if ks:
        print(f"costing kernel: {ks.get('lanes_total', 0)} lanes in "
              f"{ks.get('batches_scalar', 0)} batches, "
              f"{ks.get('shape_entries', 0)} memoized shapes")
    _print_costing(result.delta_stats, result.optimizer_calls)
    _print_configuration(result)
    return 0


def _print_costing(ds: dict, optimizer_calls: int) -> None:
    """The ``delta costing:`` line of a run or a sweep (its summed
    counters), or the optimizer calls with delta costing off."""
    if ds:
        print(f"delta costing: {ds['reused_terms']} terms reused, "
              f"{ds['patched_terms']} plan-patched, "
              f"{ds['full_recosts']} full recosts, "
              f"{ds['cost_memo_hits']} costings read from the memo")
    else:
        print(f"full recost: {optimizer_calls} optimizer calls "
              "(delta costing off)")


def _print_configuration(result) -> None:
    """One indented line per recommended structure, with its size."""
    for ix in sorted(result.configuration, key=lambda i: i.display_name()):
        print(f"  {ix.display_name():58s} "
              f"{result.sizes[ix] / 1024:8.0f} KiB")


def cmd_sweep(args) -> int:
    db, wl = _make_dataset(args.dataset, args)
    total = db.total_data_bytes()
    budgets = [total * fraction for fraction in args.budgets]
    result = _make_session(args, db, wl).sweep(
        budgets, seeds=args.seeds, workers=args.workers
    )
    print(f"database {db.name}: {total / 1024:.0f} KiB raw, "
          f"variant {args.variant}, {len(result.runs)} runs "
          f"({len(args.budgets)} budgets x "
          f"{len(args.seeds) if args.seeds else 1} seeds), "
          f"workers={result.workers}, "
          f"{result.elapsed_seconds:.1f}s total")
    print(f"{'seed':>10s} {'budget%':>8s} {'improve%':>9s} "
          f"{'consumed KiB':>13s} {'run s':>7s}")
    for run in result.runs:
        outcome = run.result
        print(f"{run.seed:>10d} "
              f"{100.0 * run.budget_bytes / total:>8.1f} "
              f"{outcome.improvement_pct:>9.1f} "
              f"{outcome.consumed_bytes / 1024:>13.0f} "
              f"{outcome.elapsed_seconds:>7.1f}")
        _print_configuration(outcome)
    _print_costing(result.delta_stats,
                   sum(outcome.optimizer_calls for outcome in result.results))
    if result.estimation_cache_stats:
        est, cost = result.estimation_cache_stats, result.cost_cache_stats
        print(f"size-estimate cache: {est['hit_rate']:.1%} hit rate "
              f"({est['hits']}/{est['hits'] + est['misses']} lookups)")
        print(f"what-if cost cache:  {cost['hit_rate']:.1%} hit rate "
              f"({cost['hits']}/{cost['hits'] + cost['misses']} lookups)")
    if result.engine_stats.get("parallel_maps"):
        print(f"engine: {result.engine_stats['tasks_dispatched']} runs "
              f"sharded over {result.workers} workers")
    return 0


def _drift_spec(args):
    from repro.workload.drift import DriftSpec

    return DriftSpec(
        seed=args.drift_seed,
        hot_fraction=args.hot_fraction,
        hot_weight=args.hot_weight,
        cold_weight=args.cold_weight,
        arrival_jitter=args.arrival_jitter,
        update_weights=tuple(args.update_weights),
    )


def _specs_from_result(path: str) -> list:
    """Index specs from a saved result JSON: either a ``/v1`` response
    (``result.indexes``) or a job snapshot (``result.result.indexes``)."""
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--from-result {path}: {exc}") from None
    body = raw
    for _ in range(2):
        inner = body.get("result") if isinstance(body, dict) else None
        if isinstance(inner, dict):
            body = inner
    specs = body.get("indexes") if isinstance(body, dict) else None
    if not isinstance(specs, list) or \
            not all(isinstance(s, dict) for s in specs):
        raise SystemExit(
            f"--from-result {path}: no 'result.indexes' spec list found"
        )
    return specs


def cmd_retune(args) -> int:
    """Continuous tuning demo: cold-tune drift phase 0, then retune
    incrementally through the remaining phases, printing each phase's
    configuration diff."""
    from repro.workload.drift import DriftingWorkload

    db, wl = _make_dataset(args.dataset, args)
    budget = db.total_data_bytes() * args.budget
    drift = DriftingWorkload(wl, _drift_spec(args))
    session = _make_session(args, db, drift.phase(0))
    print(f"database {db.name}: {db.total_data_bytes() / 1024:.0f} KiB "
          f"raw, budget {budget / 1024:.0f} KiB, "
          f"{args.phases} drift phases (seed {args.drift_seed})")
    cold = session.tune(budget_bytes=budget)
    print(f"phase 0: tuned cold, improvement "
          f"{cold.improvement_pct:.1f}%, "
          f"{len(list(cold.configuration))} structures, "
          f"{cold.elapsed_seconds:.1f}s")
    for phase in range(1, args.phases):
        rt = session.retune(budget_bytes=budget,
                            workload=drift.phase(phase))
        print(f"phase {phase}: retuned gen={rt.generation} "
              f"improvement {rt.result.improvement_pct:.1f}% "
              f"dropped={len(rt.dropped)} added={len(rt.added)} "
              f"kept={len(rt.kept)} "
              f"{rt.result.elapsed_seconds:.1f}s")
        for ix in rt.dropped:
            print(f"  - {ix.display_name()}")
        for ix in rt.added:
            print(f"  + {ix.display_name()}")
    return 0


def cmd_estimate(args) -> int:
    from repro.compression import CompressionMethod
    from repro.parallel import EstimationCache
    from repro.physical import IndexDef
    from repro.sizeest import SizeEstimator

    db, wl = _make_dataset(args.dataset, args)
    estimator = SizeEstimator(
        db, e=args.error, q=args.confidence,
        cache=(EstimationCache(args.cache_dir)
               if args.cache_dir is not None else None),
    )
    fact = "lineitem" if args.dataset == "tpch" else "sales"
    table = db.table(fact)
    keys = list(table.column_names[:4])
    targets = [
        IndexDef(fact, (k,), method=m)
        for k in keys
        for m in (CompressionMethod.ROW, CompressionMethod.PAGE)
    ]
    estimates = estimator.estimate_many(targets)
    for ix, est in estimates.items():
        print(f"{ix.display_name():55s} {est.source:9s} "
              f"{est.est_bytes / 1024:8.0f} KiB  cost={est.cost:.0f}")
    return 0


def cmd_algorithms(args) -> int:
    """Print the selection-algorithm registry (and the variant
    registry it composes with)."""
    print("selection algorithms (--algorithm):")
    for name, cls in sorted(algorithms.registered().items()):
        marker = "*" if name == algorithms.DEFAULT_ALGORITHM else " "
        print(f"  {marker} {name:18s} {cls.summary}")
        if args.verbose:
            for opt, schema in sorted(cls.options_schema().items()):
                default = schema.get("default")
                suffix = f" (default {default!r})" if default is not None \
                    else ""
                print(f"        {opt:22s} {schema.get('type', '?'):8s} "
                      f"{schema.get('description', '')}{suffix}")
    print()
    print("advisor variants (--variant):")
    for spec in variants():
        marker = "*" if spec.name == "dtac-both" else " "
        print(f"  {marker} {spec.name:18s} {spec.doc}")
    print()
    print("* = default; variants pick what the advisor considers, "
          "algorithms pick how the pool is searched.")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS, experiment

    for name in [args.only] if args.only else ALL_EXPERIMENTS:
        start = time.perf_counter()
        experiment(name)(scale=args.scale).print()
        print(f"[{name}: {time.perf_counter() - start:.1f}s]\n")
    return 0


def cmd_validate(args) -> int:
    from repro.engine import validate_recommendation

    db, wl = _make_dataset(args.dataset, args)
    budget = db.total_data_bytes() * args.budget
    session = Session(
        db, wl,
        variant=args.variant,
        cache_dir=args.cache_dir,
        delta_costing=not args.full_recost,
    )
    result = session.tune(budget_bytes=budget)
    report = validate_recommendation(
        result, db, wl, stats=session.stats,
        estimator=session.stage.estimator,
    )
    print(f"estimated improvement: {report.estimated_improvement:8.1%}")
    print(f"deployed improvement:  {report.true_size_improvement:8.1%}")
    print(f"budget respected:      {report.budget_holds}")
    print(f"worst size estimate:   {report.max_abs_size_error:8.1%} off")
    # Equal errors are common (exact estimates read 0.0%), so the name
    # breaks ties: the configuration's set order varies between runs.
    for check in sorted(report.size_checks, key=lambda c: (
        -abs(c.ratio_error), c.index.display_name()
    )):
        print(f"  {check.ratio_error:+7.1%}  "
              f"est {check.estimated / 1024:8.0f} KiB  "
              f"true {check.measured / 1024:8.0f} KiB  "
              f"{check.index.display_name()}")
    return 0 if report.recommendation_holds else 1


def cmd_serve(args) -> int:
    import asyncio

    from repro.service import AdvisorService, serve

    service = AdvisorService(
        workers=args.workers,
        cache_dir=args.cache_dir,
        max_pending=args.max_pending,
        max_context_workers=args.max_context_workers,
        tenant_quota=args.tenant_quota,
        poll_interval=args.poll_interval,
        fault_plan=args.fault_plan,
    )
    names = (
        ("sales", "tpch") if args.dataset == "both" else (args.dataset,)
    )
    for name in names:
        service.register(name, *_make_dataset(name, args))
    try:
        asyncio.run(serve(service, host=args.host, port=args.port))
    except KeyboardInterrupt:
        print("advisor service: interrupted, shutting down", flush=True)
    return 0


def cmd_jobs(args) -> int:
    """Drive the ``/v1/jobs`` surface of a running service."""
    import asyncio
    import json as _json

    from repro.service import AdvisorClient, ServiceHTTPError

    def show(snapshot: dict) -> None:
        line = (f"{snapshot['id']}  {snapshot['kind']:5s} "
                f"{snapshot['context']:12s} {snapshot['state']:9s} "
                f"{snapshot['events']:4d} events")
        if snapshot.get("error"):
            line += f"  ({snapshot['error']})"
        print(line)

    async def follow(client, job_id) -> dict:
        async for event in client.stream_events(job_id,
                                                after=args.after):
            if event["event"] == "greedy_step":
                seq = event.get("step_seq", event["seq"])
                print(f"  step {seq:3d} [{event['kind']}] "
                      f"{event['step']}")
            elif event["event"] == "best_so_far":
                print(f"  best #{event['improvement_seq']:<3d} "
                      f"cost {event['cost']:.1f}  "
                      f"{len(event['configuration'])} structures")
            elif event["event"] == "state":
                print(f"  state -> {event['state']}")
            elif event["event"] == "phase":
                print(f"  phase -> {event['phase']}")
            elif event["event"] in ("dropped", "added"):
                names = ", ".join(event.get("indexes", ()))
                print(f"  {event['event']}: {names}")
            elif event["event"] == "config_changed":
                print(f"  config_changed={event['changed']} "
                      f"gen={event['generation']}")
            elif args.verbose:
                print(f"  {_json.dumps(event)}")
        return await client.job(job_id)

    async def main() -> int:
        async with AdvisorClient(args.host, args.port) as client:
            if args.action == "list":
                listing = await client.jobs(tenant=args.tenant)
                for snapshot in listing["jobs"]:
                    show(snapshot)
                return 0
            if args.action == "submit":
                payload = dict(budget_fraction=args.budget,
                               variant=args.variant)
                if args.kind == "sweep":
                    payload = dict(budget_fractions=args.budgets,
                                   variant=args.variant)
                if args.kind == "retune" and args.drift_phase is not None:
                    payload["drift"] = {"phase": args.drift_phase,
                                        **_drift_spec(args).to_dict()}
                if args.from_result is not None:
                    payload["from_config"] = \
                        _specs_from_result(args.from_result)
                if args.algorithm is not None:
                    payload["options"] = {"algorithm": args.algorithm}
                if args.seed is not None:
                    payload["seed"] = args.seed
                job = await client.submit_job(
                    args.context, kind=args.kind,
                    tenant=args.tenant or "default",
                    priority=args.priority,
                    deadline_s=args.deadline, retries=args.retries,
                    retry_backoff=args.retry_backoff, **payload
                )
                show(job)
                if not args.follow:
                    return 0
                final = await follow(client, job["id"])
                show(final)
                if final["state"] == "done" and args.kind == "tune":
                    result = final["result"]["result"]
                    print(f"improvement "
                          f"{100 * result['improvement']:.1f}% "
                          f"({result['base_cost']:.0f} -> "
                          f"{result['final_cost']:.0f})")
                if final["state"] == "done" and args.kind == "retune":
                    result = final["result"]["result"]
                    rt = final["result"]["retune"]
                    print(f"retuned gen={rt['generation']} "
                          f"improvement "
                          f"{100 * result['improvement']:.1f}% "
                          f"dropped={len(rt['dropped'])} "
                          f"added={len(rt['added'])} "
                          f"kept={len(rt['kept'])}")
                return 0 if final["state"] == "done" else 1
            # status/events/cancel address one job.
            if not args.id:
                raise SystemExit(f"jobs {args.action} needs a job id")
            if args.action == "status":
                show(await client.job(args.id))
                return 0
            if args.action == "cancel":
                show(await client.cancel_job(args.id))
                return 0
            if args.action == "events":
                final = await follow(client, args.id)
                show(final)
                return 0
            raise SystemExit(f"unknown jobs action {args.action!r}")

    try:
        return asyncio.run(main())
    except ServiceHTTPError as exc:
        print(f"jobs {args.action}: {exc}")
        return 1


def cmd_columnstore(args) -> int:
    from repro.columnstore import tune_columnstore

    db, wl = _make_dataset(args.dataset, args)
    budget = db.total_data_bytes() * args.budget
    result = tune_columnstore(
        db, wl, budget, compression_aware=not args.blind
    )
    mode = "blind" if args.blind else "compression-aware"
    print(f"column-store advisor ({mode}): "
          f"improvement {result.improvement_pct:.1f}%, "
          f"consumed {result.consumed_bytes / 1024:.0f} of "
          f"{budget / 1024:.0f} KiB, "
          f"{result.candidate_count} candidates, "
          f"{result.elapsed_seconds:.1f}s")
    for projection in result.projections:
        size = result.sizes[projection]
        print(f"  {size.bytes / 1024:8.0f} KiB  {projection.name}")
    return 0


def _csv_list(item, label):
    """argparse type for a non-empty comma-separated list, each item
    parsed by the argparse type ``item``."""
    def parse(value: str):
        items = [item(part) for part in value.split(",") if part]
        if not items:
            raise argparse.ArgumentTypeError(f"need at least one {label}")
        return items
    return parse


def _checked_arg(rule, name: str, cast=float):
    """argparse type for a number or a path: ``cast`` the text, then apply
    ``rule(name, value)``, one of the value rules every other boundary
    applies too."""
    def parse(value: str):
        try:
            return rule(name, cast(value))
        except (ValueError, AdvisorError) as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _option_arg(name: str):
    """argparse type for the advisor option ``name``."""
    return _checked_arg(OPTION_RULES[name], name)


def _number_arg(name: str):
    """argparse type for a finite non-negative number (a budget, a
    dataset's scale, Zipf skew or statement weight)."""
    return _checked_arg(check_budget, name)


def _check_interval(name: str, value: float) -> float:
    """A sleep between ticks: finite and > 0, or a loop would spin."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number > 0, "
                         f"got {value!r}")
    return value


def _check_port(name: str, value: int) -> int:
    if not 0 <= value <= 65535:
        raise ValueError(f"{name} must be in [0, 65535], got {value!r}")
    return value


_fraction_list = _csv_list(_number_arg("budgets"), "budget")
_weight_list = _csv_list(_number_arg("update_weights"), "weight")
_seed_list = _csv_list(_checked_arg(check_seed, "seeds", int), "seed")
_phases_arg = _checked_arg(check_count, "phases", int)
_cache_dir_arg = _checked_arg(check_path, "cache_dir", str)
_port_arg = _checked_arg(_check_port, "port", int)


def _experiment_arg(name: str) -> str:
    """argparse type for an experiment name the lookup knows."""
    from repro.experiments import experiment

    try:
        experiment(name)
    except LookupError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return name


_WORKERS_HELP = ("advisor runs in flight at once (sweep units); "
                 "0 = one per CPU, 1 = sequential")


def _workers_arg(value: str) -> int:
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    if workers < 0:
        raise argparse.ArgumentTypeError("workers must be >= 0")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compression-aware physical database design "
                    "(VLDB 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--scale", type=_number_arg("scale"), default=0.2)
        p.add_argument("--zipf", type=_number_arg("zipf"), default=0.0)
        p.add_argument("--select-weight", type=_number_arg("select_weight"),
                       default=5.0)
        p.add_argument("--insert-weight", type=_number_arg("insert_weight"),
                       default=1.0)

    def add_dataset_args(p):
        p.add_argument("--dataset", choices=("tpch", "sales"),
                       default="tpch")
        add_data_args(p)
        p.add_argument("--cache-dir", type=_cache_dir_arg, default=None,
                       help="directory for the persistent size-estimate "
                            "and what-if cost caches and the cost memo "
                            "(shared across runs)")
        p.add_argument("--full-recost", action="store_true",
                       help="disable delta-aware workload costing and "
                            "re-cost the whole workload per candidate "
                            "(identical recommendations, slower — the "
                            "A/B baseline for the incremental bench)")

    p_tune = sub.add_parser("tune", help="run the tuning advisor")
    add_dataset_args(p_tune)
    p_tune.add_argument("--budget", type=_number_arg("budget"),
                        default=0.2,
                        help="storage budget as a fraction of raw data")
    p_tune.add_argument("--variant", choices=variant_names(),
                        default="dtac-both")
    p_tune.add_argument("--algorithm", choices=algorithms.names(),
                        default=algorithms.DEFAULT_ALGORITHM,
                        help="selection algorithm over the candidate "
                             "pool (see 'repro algorithms')")
    p_tune.add_argument("--all-features", action="store_true",
                        help="enable partial indexes and MVs")
    p_tune.set_defaults(fn=cmd_tune)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a whole budget sweep / seed ablation as one sharded "
             "job (persistent size + cost caches)",
    )
    add_dataset_args(p_sweep)
    p_sweep.add_argument("--workers", type=_workers_arg, default=1,
                         help=_WORKERS_HELP)
    p_sweep.add_argument("--budgets", type=_fraction_list,
                         default=[0.1, 0.2, 0.3],
                         help="comma-separated storage budgets as "
                              "fractions of raw data (one run each)")
    p_sweep.add_argument("--seeds", type=_seed_list, default=None,
                         help="comma-separated sampling seeds to ablate "
                              "over (default: the standard seed)")
    p_sweep.add_argument("--variant", choices=variant_names(),
                         default="dtac-both")
    p_sweep.add_argument("--algorithm", choices=algorithms.names(),
                         default=algorithms.DEFAULT_ALGORITHM,
                         help="selection algorithm for every unit")
    p_sweep.add_argument("--all-features", action="store_true",
                         help="enable partial indexes and MVs")
    p_sweep.set_defaults(fn=cmd_sweep)

    def add_drift_args(p):
        p.add_argument("--drift-seed", type=int, default=0,
                       help="base seed of the deterministic drift "
                            "schedule")
        p.add_argument("--hot-fraction", type=_number_arg("hot_fraction"),
                       default=0.3,
                       help="share of the SELECTs boosted per phase")
        p.add_argument("--hot-weight", type=_number_arg("hot_weight"),
                       default=8.0)
        p.add_argument("--cold-weight", type=_number_arg("cold_weight"),
                       default=0.05)
        p.add_argument("--arrival-jitter",
                       type=_number_arg("arrival_jitter"), default=0.25)
        p.add_argument("--update-weights", type=_weight_list,
                       default=[1.0, 4.0],
                       help="per-phase update/bulk weights, cycled")

    p_re = sub.add_parser(
        "retune",
        help="continuous tuning under workload drift: cold-tune phase "
             "0, then incremental retunes (drop decayed structures, "
             "greedy re-fill) through the remaining phases",
    )
    add_dataset_args(p_re)
    p_re.add_argument("--budget", type=_number_arg("budget"),
                      default=0.2,
                      help="storage budget as a fraction of raw data")
    p_re.add_argument("--variant", choices=variant_names(),
                      default="dtac-both")
    p_re.add_argument("--algorithm", choices=algorithms.names(),
                      default=algorithms.DEFAULT_ALGORITHM)
    p_re.add_argument("--phases", type=_phases_arg, default=3,
                      help="number of drift phases to tune through")
    add_drift_args(p_re)
    p_re.set_defaults(fn=cmd_retune, all_features=False)

    p_alg = sub.add_parser(
        "algorithms",
        help="print the selection-algorithm and variant registries",
    )
    p_alg.add_argument("--verbose", action="store_true",
                       help="include each algorithm's option schema")
    p_alg.set_defaults(fn=cmd_algorithms)

    p_est = sub.add_parser("estimate",
                           help="demo the size-estimation framework")
    add_dataset_args(p_est)
    p_est.add_argument("--error", type=_option_arg("e"), default=0.5)
    p_est.add_argument("--confidence", type=_option_arg("q"), default=0.9)
    p_est.set_defaults(fn=cmd_estimate)

    p_exp = sub.add_parser("experiments", help="run paper experiments")
    p_exp.add_argument("--only", type=_experiment_arg, default=None,
                       metavar="NAME", help="run only this experiment")
    p_exp.add_argument("--scale", type=_number_arg("scale"), default=0.2)
    p_exp.set_defaults(fn=cmd_experiments)

    p_val = sub.add_parser(
        "validate",
        help="tune, then re-check the recommendation against "
             "physically built structures",
    )
    add_dataset_args(p_val)
    p_val.add_argument("--budget", type=_number_arg("budget"), default=0.2)
    p_val.add_argument("--variant", choices=variant_names(),
                       default="dtac-both")
    p_val.set_defaults(fn=cmd_validate)

    p_srv = sub.add_parser(
        "serve",
        help="run the async tuning service (JSON over HTTP): concurrent "
             "tune/sweep/estimate/cost requests with in-flight "
             "coalescing and persistent caches",
    )
    p_srv.add_argument("--dataset", choices=("tpch", "sales", "both"),
                       default="sales",
                       help="context(s) to register at boot")
    add_data_args(p_srv)
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=_port_arg, default=8765,
                       help="TCP port (0 = ephemeral, printed at boot)")
    p_srv.add_argument("--workers", type=_workers_arg, default=1,
                       help=_WORKERS_HELP)
    p_srv.add_argument("--cache-dir", type=_cache_dir_arg, default=None,
                       help="directory for the persistent size-estimate "
                            "and what-if cost caches")
    p_srv.add_argument("--max-pending",
                       type=_checked_arg(check_count, "max_pending", int),
                       default=64,
                       help="request-queue bound; beyond it the HTTP "
                            "layer answers 503 (backpressure)")
    p_srv.add_argument("--max-context-workers",
                       type=_checked_arg(check_count, "max_context_workers",
                                         int),
                       default=4,
                       help="scheduler lane cap: at most this many "
                            "contexts tune concurrently (each context "
                            "always serializes on its own lane)")
    p_srv.add_argument("--tenant-quota",
                       type=_checked_arg(check_count, "tenant_quota", int),
                       default=None,
                       help="per-tenant cap on active jobs; beyond it "
                            "submissions answer 429 (per-tenant "
                            "backpressure)")
    p_srv.add_argument("--poll-interval",
                       type=_checked_arg(_check_interval, "poll_interval"),
                       default=0.25,
                       help="housekeeping cadence in seconds, with "
                            "--cache-dir: the degraded-journal probe "
                            "and the queued-deadline sweep")
    p_srv.add_argument("--fault-plan", default=None,
                       metavar="PLAN",
                       help="deterministic fault-injection plan, e.g. "
                            "'journal.append:enospc@3x2;"
                            "coster.batch:delay=0.1' (testing only; "
                            "REPRO_FAULTS env var works too)")
    p_srv.set_defaults(fn=cmd_serve)

    p_jobs = sub.add_parser(
        "jobs",
        help="drive the /v1/jobs surface of a running service: submit "
             "tune/sweep jobs, poll, stream progress, cancel",
    )
    p_jobs.add_argument("action",
                        choices=("submit", "status", "events", "cancel",
                                 "list"))
    p_jobs.add_argument("id", nargs="?", default=None,
                        help="job id (status/events/cancel)")
    p_jobs.add_argument("--host", default="127.0.0.1")
    p_jobs.add_argument("--port", type=_port_arg, default=8765)
    p_jobs.add_argument("--context", default="sales")
    p_jobs.add_argument("--kind", choices=("tune", "sweep", "retune"),
                        default="tune")
    p_jobs.add_argument("--budget", type=_number_arg("budget"),
                        default=0.15,
                        help="tune-job storage budget (fraction of raw)")
    p_jobs.add_argument("--budgets", type=_fraction_list,
                        default=[0.1, 0.2, 0.3],
                        help="sweep-job budget fractions")
    p_jobs.add_argument("--variant", choices=variant_names(),
                        default="dtac-both")
    p_jobs.add_argument("--algorithm", choices=algorithms.names(),
                        default=None,
                        help="selection algorithm for the submitted "
                             "job (server default when omitted)")
    p_jobs.add_argument("--seed", type=int, default=None)
    p_jobs.add_argument("--tenant", default=None,
                        help="tenant tag for fairness/quota accounting "
                             "(submit default: 'default'); with list, "
                             "show only this tenant's jobs")
    p_jobs.add_argument("--priority",
                        choices=("high", "normal", "low"),
                        default="normal",
                        help="priority lane for the submitted job")
    p_jobs.add_argument("--deadline", type=float, default=None,
                        help="wall-clock deadline in seconds measured "
                             "from submission; past it the job fails "
                             "with timeout=true")
    p_jobs.add_argument("--retries", type=int, default=None,
                        help="re-run the job up to this many times "
                             "after transient failures")
    p_jobs.add_argument("--retry-backoff", type=float, default=None,
                        help="base seconds for jittered exponential "
                             "retry backoff (default 0.5)")
    p_jobs.add_argument("--from-result", default=None, metavar="PATH",
                        help="retune from the configuration in a saved "
                             "result/job-snapshot JSON instead of the "
                             "service's own last tune/retune")
    p_jobs.add_argument("--drift-phase", type=int, default=None,
                        help="retune against this drift phase of the "
                             "context's workload (omit to retune "
                             "against the registered workload as-is)")
    add_drift_args(p_jobs)
    p_jobs.add_argument("--after", type=int, default=0,
                        help="resume an event stream past this seq")
    p_jobs.add_argument("--follow", action="store_true",
                        help="after submit: stream events until the "
                             "job is terminal, then print the result")
    p_jobs.add_argument("--verbose", action="store_true",
                        help="print every raw event line")
    p_jobs.set_defaults(fn=cmd_jobs)

    p_cs = sub.add_parser(
        "columnstore",
        help="run the column-store projection advisor (Section 8)",
    )
    add_dataset_args(p_cs)
    p_cs.add_argument("--budget", type=_number_arg("budget"), default=0.25)
    p_cs.add_argument("--blind", action="store_true",
                      help="size candidates as fixed-width columns "
                           "(the decoupled strawman)")
    p_cs.set_defaults(fn=cmd_columnstore)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
