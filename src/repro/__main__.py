"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

Subcommands::

    list     show every registered algorithm with its metadata
    solve    run one algorithm on a JSON instance (named via --algorithm,
             capability-selected via --auto, in-process or --remote),
             print/emit the schedule
    batch    run many instances x many algorithms through the parallel
             execution engine, emit a JSON or CSV report
    compare  run several algorithms on one instance, print a table
    bounds   print the certified lower/upper bounds for an instance
    generate emit a synthetic instance as JSON
    serve    run the persistent scheduling service (HTTP/JSON API)
    submit   send instances to a running service, optionally wait
    bench    run a named perf suite, write BENCH_results.json, optionally
             gate against a committed baseline
    fuzz     seeded differential fuzzing: adversarial instances through
             the cross-solver/fast-path/metamorphic oracles, minimised
             counterexamples written in the tests/corpus format
    metrics  print the Prometheus metrics registry (the in-process one,
             or a running service's via --url)

Examples::

    python -m repro generate --kind uniform --n 40 --classes 8 \
        --machines 4 --slots 2 --seed 7 -o inst.json
    python -m repro solve inst.json --algorithm nonpreemptive
    python -m repro solve inst.json --auto variant=nonpreemptive,no_milp
    python -m repro solve inst.json --remote http://127.0.0.1:8080
    python -m repro list --variant splittable
    python -m repro batch a.json b.json \
        --algorithms splittable,nonpreemptive,lpt --workers 4 -o report.json
    python -m repro compare inst.json --algorithms splittable,ffd,greedy
    python -m repro serve --port 8080 --db jobs.db --drainers 4
    python -m repro submit inst.json --url http://127.0.0.1:8080 \
        --algorithms splittable,lpt --wait
    python -m repro fuzz --seed 7 --count 200 --workers 2

Every run dispatches through the :class:`repro.api.Session` facade, so
the CLI, the examples, the benchmarks and the service execute work
identically; ``--remote`` swaps the in-process backend for a ``/v1``
service without changing anything else. Algorithms resolve through
:mod:`repro.registry` (by name, or by capability via ``--auto``);
adding a solver there makes it available to every subcommand with no
CLI changes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .analysis.reporting import format_table, render_reports, reports_to_csv
from .api import Session, SolveRequest, SolverQuery
from .core.bounds import (area_bound, nonpreemptive_lower_bound, pmax_bound,
                          preemptive_lower_bound, splittable_lower_bound,
                          trivial_upper_bound)
from .core.errors import InvalidInstanceError
from .core.instance import Instance
from .engine import DEFAULT_WORKERS, ReportCache
from .io import dump_instance, instance_to_dict, load_instance
from .registry import (NoMatchingSolverError, UnknownSolverError, get_solver,
                       list_solvers)
from .workloads import (data_placement_instance, uniform_instance,
                        video_on_demand_instance, zipf_instance)


def _load_instance_checked(path: str) -> Instance:
    """Load an instance JSON or exit with a message instead of a traceback."""
    try:
        return load_instance(path)
    except FileNotFoundError:
        raise SystemExit(f"error: instance file not found: {path}")
    except IsADirectoryError:
        raise SystemExit(f"error: {path} is a directory, not an instance file")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    except KeyError as exc:
        raise SystemExit(
            f"error: {path} is missing required instance field {exc}")
    except (InvalidInstanceError, TypeError, ValueError) as exc:
        raise SystemExit(f"error: {path} is not a valid instance: {exc}")


def _resolve_algorithms(names: str, delta: int | None
                        ) -> list[tuple[str, dict]]:
    """Split a comma list, resolve each name, attach accepted kwargs."""
    algos: list[tuple[str, dict]] = []
    for name in (s.strip() for s in names.split(",")):
        if not name:
            continue
        try:
            spec = get_solver(name)
        except UnknownSolverError as exc:
            # KeyError subclass: str() would wrap the message in quotes
            raise SystemExit(f"error: {exc.args[0]}")
        kwargs = {}
        if delta is not None and "delta" in spec.accepts:
            kwargs["delta"] = delta
        algos.append((spec.name, kwargs))
    if not algos:
        raise SystemExit("error: no algorithms given")
    return algos


# --------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------- #

def _cmd_list(args: argparse.Namespace) -> int:
    specs = list_solvers(variant=args.variant, kind=args.kind)

    def _thm1(s) -> str:
        # Theorem-1 running-time scale of the n-fold program each
        # nfold-* solver builds at the reference large-m shape
        if not s.needs_nfold:
            return "-"
        from .nfold.registry_solvers import reference_theorem1_bound
        return f"1e{reference_theorem1_bound(s.variant):.0f}"

    rows = [[s.name, s.variant, s.kind, s.ratio_label, s.theorem or "-",
             "yes" if s.needs_milp else "no", _thm1(s),
             ",".join(s.accepts) or "-",
             str(s.default_epsilon) if s.default_epsilon is not None
             else "-", s.summary]
            for s in specs]
    print(format_table(["name", "variant", "kind", "ratio", "theorem",
                        "milp", "thm1", "kwargs", "default eps", "summary"],
                       rows, title=f"{len(rows)} registered solver(s)"))
    return 0


def _session_for(args: argparse.Namespace, *,
                 default_workers: int = 0, cache=None) -> Session:
    """The Session a subcommand dispatches through: a ``/v1`` service
    when ``--remote`` is given, the in-process engine otherwise.

    Local-only flags must not be silently discarded on the remote path."""
    if getattr(args, "remote", None):
        if getattr(args, "cache_dir", None):
            raise SystemExit(
                "error: --cache-dir cannot be combined with --remote; "
                "the service owns its own result cache")
        if getattr(args, "workers", None) is not None:
            raise SystemExit(
                "error: --workers has no effect with --remote; the "
                "service's --engine-workers controls its fan-out")
        return Session(args.remote)
    workers = getattr(args, "workers", None)
    return Session(workers=default_workers if workers is None else workers,
                   cache=cache)


def _dispatch(run):
    """Run a Session call, turning user-input and remote failures into
    the CLI's ``error:`` + exit-1 contract instead of tracebacks."""
    try:
        return run()
    except (NoMatchingSolverError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    except Exception as exc:
        from .service.client import ServiceError
        if isinstance(exc, (ServiceError, OSError, TimeoutError)):
            raise SystemExit(f"error: {exc}")
        raise


def _build_solve_request(args: argparse.Namespace,
                         inst: Instance) -> SolveRequest:
    query = None
    if args.auto:
        if args.algorithm is not None:
            raise SystemExit(
                "error: --algorithm and --auto are mutually exclusive")
        try:
            query = SolverQuery.parse(args.auto)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        algorithm, kwargs = None, {}
    else:
        try:
            spec = get_solver(args.algorithm or "nonpreemptive")
        except UnknownSolverError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
        algorithm = spec.name
        kwargs = {"delta": args.delta} if "delta" in spec.accepts else {}
    try:
        return SolveRequest(inst, algorithm=algorithm, query=query,
                            kwargs=kwargs, label=args.instance,
                            timeout=args.timeout,
                            want_schedule=bool(args.output or args.emit))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance_checked(args.instance)
    request = _build_solve_request(args, inst)
    report = _dispatch(lambda: _session_for(args).solve(request))
    if not report.ok:
        raise SystemExit(
            f"error: {report.algorithm} finished {report.status}"
            f"{': ' + report.error if report.error else ''}")
    print(f"algorithm : {report.algorithm}", file=sys.stderr)
    print(f"makespan  : {float(report.makespan):.6g}", file=sys.stderr)
    if report.guess is not None:
        print(f"guess T   : {float(report.guess):.6g}", file=sys.stderr)
        print(f"certified : makespan/guess = "
              f"{report.certified_ratio:.4f}", file=sys.stderr)
    if args.output or args.emit:
        sched = report.extra.get("schedule")
        if sched is None:
            raise SystemExit(
                f"error: {report.algorithm} computes only the optimum "
                "value; it has no schedule to emit")
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(sched, fh, indent=2)
            print(f"schedule written to {args.output}", file=sys.stderr)
        else:
            json.dump(sched, sys.stdout, indent=2)
            print()
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    instances = [(path, _load_instance_checked(path))
                 for path in args.instances]
    algos = _resolve_algorithms(args.algorithms, args.delta)
    cache = (ReportCache(args.cache_dir)
             if args.cache_dir and not args.remote else None)
    session = _session_for(args, default_workers=DEFAULT_WORKERS,
                           cache=cache)
    reports = _dispatch(lambda: session.solve_batch(
        instances, algorithms=algos, timeout=args.timeout))
    if args.format == "csv":
        payload = reports_to_csv(reports)
    else:
        payload = json.dumps({"reports": [r.to_dict() for r in reports]},
                             indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
        print(f"{len(reports)} report(s) written to {args.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(payload)
    print(render_reports(reports), file=sys.stderr)
    failed = [r for r in reports if r.status == "error"]
    return 1 if failed else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    inst = _load_instance_checked(args.instance)
    algos = _resolve_algorithms(args.algorithms, args.delta)
    reports = _dispatch(lambda: _session_for(args).solve_batch(
        [(args.instance, inst)], algorithms=algos, timeout=args.timeout))
    ok = [r for r in reports if r.ok and r.makespan is not None]
    best = min((float(r.makespan) for r in ok), default=None)
    print(render_reports(reports, title=f"compare on {args.instance}"))
    if best is not None:
        winners = ", ".join(r.algorithm for r in ok
                            if float(r.makespan) == best)
        print(f"best makespan {best:.6g} by: {winners}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    inst = _load_instance_checked(args.instance)
    print(f"area            : {float(area_bound(inst)):.6g}")
    print(f"pmax            : {pmax_bound(inst)}")
    print(f"splittable LB   : {float(splittable_lower_bound(inst)):.6g}")
    print(f"preemptive LB   : {float(preemptive_lower_bound(inst)):.6g}")
    print(f"non-preempt LB  : {nonpreemptive_lower_bound(inst)}")
    print(f"trivial UB      : {float(trivial_upper_bound(inst)):.6g}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve
    try:
        serve(args.store or args.db, host=args.host, port=args.port,
              drainers=args.drainers,
              engine_workers=args.engine_workers,
              default_timeout=args.timeout,
              lease_seconds=args.lease_seconds or None,
              max_attempts=args.max_attempts,
              drain_grace=args.drain_grace,
              embedded_workers=not args.no_embedded_workers,
              cache_shards=args.cache_shards,
              quiet=args.quiet,
              log_level=args.log_level)
    except ValueError as exc:        # bad --store URL, bad shard count
        raise SystemExit(f"error: {exc}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .service import run_worker
    try:
        run_worker(args.store, workers=args.workers,
                   engine_workers=args.engine_workers,
                   name=args.name,
                   lease_seconds=args.lease_seconds or None,
                   default_timeout=args.timeout,
                   poll_interval=args.poll_interval,
                   drain_grace=args.drain_grace,
                   quiet=args.quiet, log_level=args.log_level)
    except ValueError as exc:        # bad --store URL
        raise SystemExit(f"error: {exc}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError
    status = "quarantined" if args.quarantined else args.status
    try:
        with ServiceClient(args.url) as client:
            page = client.jobs_page(status=status, limit=args.limit)
    except (ServiceError, TimeoutError, OSError) as exc:
        raise SystemExit(f"error: {exc}")
    rows = []
    for job in page["jobs"]:
        error = job.get("error", "")
        if len(error) > 60:
            error = error[:57] + "..."
        rows.append([job["id"][:12], job["status"],
                     f"{job.get('attempts', 0)}/"
                     f"{job.get('max_attempts', '-')}",
                     job.get("label", ""), error])
    title = f"jobs ({status})" if status else "jobs"
    print(format_table(["id", "status", "attempts", "label", "error"],
                       rows, title=title))
    shown = len(rows)
    total = page.get("total", shown)
    if total > shown:
        print(f"(showing {shown} of {total}; use --limit)",
              file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults.chaos import DEFAULT_FAULTS, run_chaos
    try:
        result = run_chaos(seed=args.seed, jobs=args.jobs,
                           faults=args.faults or DEFAULT_FAULTS,
                           url=args.url, drainers=args.drainers,
                           engine_workers=args.engine_workers,
                           lease_seconds=args.lease_seconds,
                           max_attempts=args.max_attempts,
                           deadline=args.deadline,
                           store_url=args.store,
                           external_workers=args.external_workers,
                           progress=lambda m: print(m, file=sys.stderr))
    except ValueError as exc:        # bad --store URL / topology combo
        raise SystemExit(f"error: {exc}")
    print(json.dumps(result.to_dict(), indent=2))
    verdict = "OK" if result.ok else "FAILED"
    print(f"chaos {verdict}: {result.jobs} jobs, "
          f"{len(result.quarantined)} quarantined, "
          f"{len(result.failed)} failed, {len(result.stuck)} stuck, "
          f"{len(result.mismatched)} mismatched, "
          f"{result.retries} retries, {result.reclaims} reclaims, "
          f"{result.rebuilds} pool rebuilds "
          f"in {result.elapsed_s:.1f}s", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError
    algos = _resolve_algorithms(args.algorithms, args.delta)
    client = ServiceClient(args.url)
    job_ids = []
    try:
        for path in args.instances:
            inst = _load_instance_checked(path)
            job = client.submit(inst, algos, label=path,
                                priority=args.priority, timeout=args.timeout)
            job_ids.append(job["id"])
            print(f"submitted {path} as job {job['id']}", file=sys.stderr)
        if not args.wait:
            print(json.dumps({"job_ids": job_ids}))
            return 0
        reports, failed_jobs = [], []
        for path, job_id in zip(args.instances, job_ids):
            try:
                reports.extend(client.wait(job_id,
                                           timeout=args.wait_timeout))
            except ServiceError as exc:
                # a job that finished in a failed state must fail the
                # command — with enough context to debug it: the job's
                # trace id (greps straight into the service's structured
                # logs) and its queue/run timings, not a bare exit 1
                if exc.code not in ("job_failed", "job_quarantined"):
                    raise
                failed_jobs.append(job_id)
                job = client.job(job_id)
                trace = job.get("trace_id") or "-"
                timing = ""
                started, finished = (job.get("started_at"),
                                     job.get("finished_at"))
                if started and finished:
                    timing = f" after {finished - started:.3f}s running"
                print(f"error: job {job_id} ({path}) [trace {trace}]"
                      f"{timing}: {exc.message}", file=sys.stderr)
    except (ServiceError, TimeoutError, OSError) as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        client.close()
    print(json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2))
    if reports:
        print(render_reports(reports), file=sys.stderr)
    bad_reports = [r for r in reports if r.status == "error"]
    for r in bad_reports:
        trace = r.extra.get("trace_id", "-") if r.extra else "-"
        print(f"error: {r.instance_label}/{r.algorithm} [trace {trace}] "
              f"finished {r.status} after {r.wall_time_s:.3f}s: {r.error}",
              file=sys.stderr)
    return 1 if failed_jobs or bad_reports else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf import (compare_results, load_results, run_suite,
                       write_results)
    baseline = None
    if args.baseline:
        # validate before burning minutes of bench time
        try:
            baseline = load_results(args.baseline)
        except FileNotFoundError:
            raise SystemExit(f"error: baseline not found: {args.baseline}")
        except (ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: bad baseline {args.baseline}: {exc}")
    try:
        run = run_suite(args.suite, repeats=args.repeats,
                        progress=lambda line: print(line, file=sys.stderr))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    path = write_results(run, args.output)
    print(f"{len(run.results)} bench(es) written to {path}",
          file=sys.stderr)
    # dump the in-process metrics registry next to the results — the
    # solver-latency histograms the benches just filled are themselves a
    # perf artifact worth keeping with the run
    import os
    from .obs.metrics import REGISTRY
    metrics_path = os.path.splitext(str(path))[0] + ".metrics.txt"
    with open(metrics_path, "w") as fh:
        fh.write(REGISTRY.render())
    print(f"metrics registry dumped to {metrics_path}", file=sys.stderr)
    if baseline is None:
        return 0
    try:
        comparisons = compare_results(run.to_dict(), baseline,
                                      warn_ratio=args.warn_over,
                                      fail_ratio=args.fail_over)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    for comp in comparisons:
        print(comp.line())
    failed = [c for c in comparisons if c.status == "fail"]
    warned = [c for c in comparisons if c.status == "warn"]
    print(f"compared {sum(c.ratio is not None for c in comparisons)} "
          f"bench(es) against {args.baseline}: "
          f"{len(failed)} fail, {len(warned)} warn", file=sys.stderr)
    return 1 if failed else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import CorpusCase, run_campaign, save_corpus_file
    solvers = None
    if args.solvers:
        solvers = []
        for name in (s.strip() for s in args.solvers.split(",")):
            if not name:
                continue
            try:
                solvers.append(get_solver(name).name)
            except UnknownSolverError as exc:
                raise SystemExit(f"error: {exc.args[0]}")
        if not solvers:
            raise SystemExit("error: no solvers given")
    generators = None
    if getattr(args, "generators", None):
        generators = tuple(g.strip() for g in args.generators.split(",")
                           if g.strip())
        if not generators:
            raise SystemExit("error: no generators given")
    session = Session(workers=args.workers or 0)
    try:
        result = run_campaign(
            seed=args.seed, count=args.count, solvers=solvers,
            include_ptas=args.include_ptas, generators=generators,
            session=session,
            time_budget=args.time_budget, shrink=not args.no_shrink,
            progress=lambda line: print(line, file=sys.stderr))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    budget_note = " (stopped at time budget)" if result.out_of_budget else ""
    print(f"fuzz: seed={args.seed} ran {result.cases_run} case(s) in "
          f"{result.elapsed_s:.1f}s{budget_note}: "
          f"{len(result.violations)} violation(s)", file=sys.stderr)
    if not result.violations:
        return 0
    import os
    os.makedirs(args.artifacts, exist_ok=True)
    for k, violation in enumerate(result.shrunk):
        case = CorpusCase(
            instance=violation.instance,
            oracles=(violation.oracle,),
            solvers=(violation.solver,),
            note=violation.message,
            source=f"repro fuzz --seed {args.seed} --count {args.count}"
                   + ("" if args.no_shrink else " (shrunk)"),
            # the per-case seed the oracle found (and the shrinker
            # re-validated) the witness under; corpus replay re-draws
            # the exact failing metamorphic transform from it
            seed=violation.seed)
        path = os.path.join(
            args.artifacts,
            f"seed{args.seed}-{k}-{violation.oracle}-"
            f"{violation.solver}.json")
        save_corpus_file(path, case)
        print(f"fuzz: {violation}\n      minimised witness -> {path}",
              file=sys.stderr)
    print(json.dumps({"violations": [v.to_dict()
                                     for v in result.shrunk]}, indent=2))
    return 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.url:
        from .service import ServiceClient, ServiceError
        try:
            with ServiceClient(args.url, timeout=10.0) as client:
                sys.stdout.write(client.metrics())
        except (ServiceError, OSError) as exc:
            raise SystemExit(
                f"error: cannot fetch metrics from {args.url}: {exc}")
    else:
        from .obs.metrics import REGISTRY
        sys.stdout.write(REGISTRY.render())
    return 0


_GENERATORS = {
    "uniform": uniform_instance,
    "zipf": zipf_instance,
    "data-placement": data_placement_instance,
    "vod": video_on_demand_instance,
}


def _cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    inst = _GENERATORS[args.kind](rng, args.n, args.classes, args.machines,
                                  args.slots)
    if args.output:
        dump_instance(inst, args.output)
        print(f"instance written to {args.output}", file=sys.stderr)
    else:
        json.dump(instance_to_dict(inst), sys.stdout, indent=2)
        print()
    return 0


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #

def _add_engine_options(p: argparse.ArgumentParser,
                        default_workers: int | None) -> None:
    p.add_argument("--algorithms",
                   default="splittable,preemptive,nonpreemptive",
                   help="comma-separated registry names")
    p.add_argument("--delta", type=int, default=None,
                   help="PTAS accuracy q (delta = 1/q), forwarded to any "
                        "PTAS in --algorithms")
    p.add_argument("--workers", type=int, default=default_workers,
                   help="process fan-out; 0 runs inline")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run wall-clock timeout in seconds")
    p.add_argument("--remote", metavar="URL",
                   help="run on a `repro serve` /v1 endpoint instead of "
                        "in-process (local --workers/--cache-dir do not "
                        "apply)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro",
                                description="Class Constrained Scheduling")
    sub = p.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("list", help="show the solver registry")
    pl.add_argument("--variant",
                    choices=("splittable", "preemptive", "nonpreemptive"))
    pl.add_argument("--kind",
                    choices=("approx", "ptas", "exact", "baseline"))
    pl.set_defaults(func=_cmd_list)

    ps = sub.add_parser("solve", help="run an algorithm on an instance")
    ps.add_argument("instance", help="path to an instance JSON file")
    ps.add_argument("--algorithm", default=None,
                    help="any registered solver (see `repro list`); "
                         "defaults to nonpreemptive")
    ps.add_argument("--auto", metavar="QUERY",
                    help="pick the solver by capability instead of name, "
                         "e.g. variant=nonpreemptive,max_ratio=7/3,no_milp"
                         ",budget=5")
    ps.add_argument("--delta", type=int, default=2,
                    help="PTAS accuracy q (delta = 1/q)")
    ps.add_argument("--timeout", type=float, default=None,
                    help="wall-clock timeout in seconds")
    ps.add_argument("--remote", metavar="URL",
                    help="solve on a running `repro serve` /v1 endpoint "
                         "instead of in-process")
    ps.add_argument("-o", "--output", help="write the schedule JSON here")
    ps.add_argument("--emit", action="store_true",
                    help="print the schedule JSON to stdout")
    ps.set_defaults(func=_cmd_solve)

    pba = sub.add_parser(
        "batch", help="instances x algorithms through the parallel engine")
    pba.add_argument("instances", nargs="+",
                     help="instance JSON files")
    _add_engine_options(pba, default_workers=None)
    pba.add_argument("--format", choices=("json", "csv"), default="json")
    pba.add_argument("--cache-dir",
                     help="persist per-run reports here, keyed by "
                          "instance content hash")
    pba.add_argument("-o", "--output", help="write the report here")
    pba.set_defaults(func=_cmd_batch)

    pc = sub.add_parser("compare",
                        help="run several algorithms on one instance")
    pc.add_argument("instance")
    _add_engine_options(pc, default_workers=None)   # inline unless asked
    pc.set_defaults(func=_cmd_compare)

    pb = sub.add_parser("bounds", help="print certified makespan bounds")
    pb.add_argument("instance")
    pb.set_defaults(func=_cmd_bounds)

    pg = sub.add_parser("generate", help="emit a synthetic instance")
    pg.add_argument("--kind", choices=sorted(_GENERATORS),
                    default="uniform")
    pg.add_argument("--n", type=int, default=40)
    pg.add_argument("--classes", type=int, default=8)
    pg.add_argument("--machines", type=int, default=4)
    pg.add_argument("--slots", type=int, default=2)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("-o", "--output")
    pg.set_defaults(func=_cmd_generate)

    pe = sub.add_parser(
        "serve", help="run the persistent scheduling service")
    pe.add_argument("--host", default="127.0.0.1")
    pe.add_argument("--port", type=int, default=8080)
    pe.add_argument("--db", default="repro-jobs.db",
                    help="SQLite file for jobs/reports/result cache "
                         "(jobs survive restarts)")
    pe.add_argument("--store", default=None,
                    help="storage backend URL: sqlite:///jobs.db "
                         "(3 slashes = relative path, 4 = absolute) or "
                         "memory:// (volatile, tests); overrides --db")
    pe.add_argument("--drainers", type=int, default=2,
                    help="queue worker threads consuming jobs")
    pe.add_argument("--no-embedded-workers", action="store_true",
                    help="accept + supervise only; execution is left to "
                         "external `repro worker` processes sharing the "
                         "store")
    pe.add_argument("--cache-shards", type=int, default=None,
                    help="result-cache shard count for a fresh store "
                         "(default 4; existing stores keep theirs)")
    pe.add_argument("--engine-workers", type=int, default=0,
                    help="process fan-out per job (0 solves inline on "
                         "the drainer thread)")
    pe.add_argument("--timeout", type=float, default=None,
                    help="default per-run timeout for jobs without one")
    pe.add_argument("--lease-seconds", type=float, default=30.0,
                    help="job lease length drainers hold and heartbeat "
                         "(0 disables leases/retries/supervision)")
    pe.add_argument("--max-attempts", type=int, default=None,
                    help="attempts per job before quarantine "
                         "(default: store default, 3)")
    pe.add_argument("--drain-grace", type=float, default=10.0,
                    help="seconds SIGTERM/SIGINT waits for in-flight "
                         "jobs before releasing their leases")
    pe.add_argument("--quiet", action="store_true",
                    help="log warnings only (shorthand for "
                         "--log-level warning)")
    pe.add_argument("--log-level", default=None,
                    choices=("debug", "info", "warning", "error"),
                    help="structured-log threshold; overrides --quiet "
                         "(default: info)")
    pe.set_defaults(func=_cmd_serve)

    pw = sub.add_parser(
        "worker", help="run a standalone worker node draining a shared "
                       "store (pair with `repro serve "
                       "--no-embedded-workers`)")
    pw.add_argument("--store", required=True,
                    help="storage backend URL shared with the server, "
                         "e.g. sqlite:///jobs.db (memory:// cannot be "
                         "shared across processes)")
    pw.add_argument("--workers", type=int, default=2,
                    help="drainer threads in this node")
    pw.add_argument("--engine-workers", type=int, default=0,
                    help="process fan-out per job (0 solves inline on "
                         "the drainer thread)")
    pw.add_argument("--name", default=None,
                    help="node name stamped on claims (default: "
                         "node-<pid>-<k>)")
    pw.add_argument("--timeout", type=float, default=None,
                    help="default per-run timeout for jobs without one")
    pw.add_argument("--lease-seconds", type=float, default=30.0,
                    help="job lease length drainers hold and heartbeat "
                         "(0 disables leases/retries/supervision)")
    pw.add_argument("--poll-interval", type=float, default=0.25,
                    help="idle sleep between store polls")
    pw.add_argument("--drain-grace", type=float, default=10.0,
                    help="seconds SIGTERM/SIGINT waits for in-flight "
                         "jobs before releasing their leases")
    pw.add_argument("--quiet", action="store_true",
                    help="log warnings only (shorthand for "
                         "--log-level warning)")
    pw.add_argument("--log-level", default=None,
                    choices=("debug", "info", "warning", "error"),
                    help="structured-log threshold; overrides --quiet "
                         "(default: info)")
    pw.set_defaults(func=_cmd_worker)

    pj = sub.add_parser(
        "jobs", help="list jobs on a running service")
    pj.add_argument("--url", default="http://127.0.0.1:8080",
                    help="base URL of a `repro serve` endpoint")
    pj.add_argument("--status", default=None,
                    choices=("queued", "running", "done", "failed",
                             "quarantined"),
                    help="only jobs in this status")
    pj.add_argument("--quarantined", action="store_true",
                    help="shorthand for --status quarantined")
    pj.add_argument("--limit", type=int, default=50,
                    help="page size (max 500)")
    pj.set_defaults(func=_cmd_jobs)

    ph = sub.add_parser(
        "chaos", help="fault-injection campaign asserting the crash-safe "
                      "job lifecycle (every job terminal, reports "
                      "byte-identical to a clean run)")
    ph.add_argument("--seed", type=int, default=7,
                    help="campaign + fault-plan seed (deterministic)")
    ph.add_argument("--jobs", type=int, default=50,
                    help="jobs submitted in the campaign")
    ph.add_argument("--faults", default=None,
                    help="fault plan 'site:rate[:arg],...' (default: "
                         "worker_kill + shm_attach + store_commit + "
                         "drainer_loop, all >= 5%%)")
    ph.add_argument("--url", default=None,
                    help="run against this live service instead of "
                         "booting a private one (its own REPRO_FAULTS "
                         "env supplies the faults)")
    ph.add_argument("--drainers", type=int, default=2,
                    help="drainer threads of the private service")
    ph.add_argument("--engine-workers", type=int, default=2,
                    help="process fan-out of the private service")
    ph.add_argument("--lease-seconds", type=float, default=2.0,
                    help="lease length of the private service (short, "
                         "so reclaims happen within the campaign)")
    ph.add_argument("--max-attempts", type=int, default=5,
                    help="attempts per job before quarantine")
    ph.add_argument("--deadline", type=float, default=180.0,
                    help="seconds before undrained jobs count as stuck")
    ph.add_argument("--store", default=None,
                    help="storage backend URL for the private service "
                         "(default: a temporary sqlite file; memory:// "
                         "needs --external-workers 0)")
    ph.add_argument("--external-workers", type=int, default=0,
                    help="drain through this many separate `repro "
                         "worker` processes instead of embedded "
                         "drainers; adds a worker_kill leg that "
                         "SIGKILLs one mid-campaign")
    ph.set_defaults(func=_cmd_chaos)

    pu = sub.add_parser(
        "submit", help="submit instances to a running service")
    pu.add_argument("instances", nargs="+", help="instance JSON files")
    pu.add_argument("--url", default="http://127.0.0.1:8080",
                    help="base URL of a `repro serve` endpoint")
    pu.add_argument("--algorithms",
                    default="splittable,preemptive,nonpreemptive",
                    help="comma-separated registry names")
    pu.add_argument("--delta", type=int, default=None,
                    help="PTAS accuracy q (delta = 1/q), forwarded to any "
                         "PTAS in --algorithms")
    pu.add_argument("--priority", type=int, default=0,
                    help="higher runs first")
    pu.add_argument("--timeout", type=float, default=None,
                    help="per-run timeout applied server-side")
    pu.add_argument("--wait", action="store_true",
                    help="poll until done and print the reports")
    pu.add_argument("--wait-timeout", type=float, default=300.0,
                    help="give up waiting after this many seconds")
    pu.set_defaults(func=_cmd_submit)

    pz = sub.add_parser(
        "fuzz", help="differential fuzzing: adversarial instances "
                     "through every oracle")
    pz.add_argument("--seed", type=int, default=0,
                    help="campaign seed; same seed + count reproduces "
                         "every case exactly")
    pz.add_argument("--count", type=int, default=200,
                    help="number of adversarial cases to generate")
    pz.add_argument("--solvers",
                    help="comma-separated registry names to sweep "
                         "(default: every non-PTAS solver)")
    pz.add_argument("--include-ptas", action="store_true",
                    help="add the MILP-backed PTASes to the sweep "
                         "(slower)")
    pz.add_argument("--generators",
                    help="comma-separated generator families to draw "
                         "cases from (default: all, weighted)")
    pz.add_argument("--time-budget", type=float, default=None,
                    help="stop the campaign after this many seconds")
    pz.add_argument("--workers", type=int, default=0,
                    help="run the solver sweep through the process-pool "
                         "Session backend (0 = inline)")
    pz.add_argument("--no-shrink", action="store_true",
                    help="report raw counterexamples without minimising")
    pz.add_argument("--artifacts", default="fuzz-artifacts",
                    help="directory for minimised counterexample JSON "
                         "(corpus format; created only on violation)")
    pz.set_defaults(func=_cmd_fuzz)

    pf = sub.add_parser(
        "bench", help="run a perf suite and write BENCH_results.json")
    pf.add_argument("--suite", default="smoke",
                    choices=("smoke", "kernel", "nfold", "batch", "full"),
                    help="which bench suite to run (full = everything, "
                         "what the committed baseline is built from)")
    pf.add_argument("--repeats", type=int, default=5,
                    help="timing repeats per bench (min/median recorded)")
    pf.add_argument("-o", "--output", default="BENCH_results.json",
                    help="where to write the results JSON")
    pf.add_argument("--baseline", metavar="PATH",
                    help="compare against this committed results file; "
                         "exit 1 on any bench beyond --fail-over")
    pf.add_argument("--warn-over", type=float, default=1.25,
                    help="warn when current/baseline min time exceeds "
                         "this ratio")
    pf.add_argument("--fail-over", type=float, default=1.25,
                    help="fail when the ratio exceeds this (CI uses 2.0 "
                         "to absorb shared-runner noise)")
    pf.set_defaults(func=_cmd_bench)

    pm = sub.add_parser(
        "metrics", help="print the Prometheus metrics registry")
    pm.add_argument("--url",
                    help="fetch /v1/metrics from this `repro serve` "
                         "endpoint instead of dumping the in-process "
                         "registry")
    pm.set_defaults(func=_cmd_metrics)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    finally:
        # explicit release of the engine's persistent worker pool (atexit
        # would cover a normal interpreter exit, but `main` is also called
        # programmatically and from tests)
        from .engine.pool import shutdown_pool
        shutdown_pool(wait=False)


if __name__ == "__main__":
    raise SystemExit(main())
