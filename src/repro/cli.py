"""Command-line interface for the SERD reproduction.

Usage::

    python -m repro synthesize --dataset restaurant --scale 0.2 --out ./release
    python -m repro synthesize --dataset restaurant --out ./release \
        --checkpoint ./ckpt          # stage checkpoints; safe to interrupt
    python -m repro resume --checkpoint ./ckpt --dataset restaurant \
        --out ./release              # continue an interrupted run
    python -m repro evaluate   --dataset restaurant --scale 0.2
    python -m repro stats      [--scale 1.0]
    python -m repro experiments

    # The synthesis service (see repro.service):
    python -m repro register --dataset restaurant --scale 0.1 \
        --registry ./svc/registry --name restaurant
    python -m repro serve    --registry ./svc/registry --queue ./svc/queue \
        --port 8765 --workers 2
    python -m repro submit   --url http://127.0.0.1:8765 --model restaurant --wait
    python -m repro status   --url http://127.0.0.1:8765 [--job JOB_ID]
    python -m repro dlq      --queue ./svc/queue list
    python -m repro dlq      --queue ./svc/queue inspect --job JOB_ID
    python -m repro dlq      --queue ./svc/queue requeue --job JOB_ID
    python -m repro verify-artifacts ./svc/queue   # integrity scrub
    python -m repro privacy-audit --registry ./svc/registry \
        --model restaurant --check       # re-run the sealed attack battery
    python -m repro privacy-audit --export ./release --dataset restaurant

``synthesize`` fits SERD on a generated benchmark and writes the surrogate
as a CSV bundle; ``resume`` picks up an interrupted checkpointed run without
redoing committed stages; ``evaluate`` runs the Exp-2/Exp-3 protocol on one
dataset; ``stats`` prints Table II; ``experiments`` runs the full harness.
``register`` fits a model into a registry; ``serve`` runs the HTTP service
(API + worker pool); ``submit``/``status`` talk to a running service;
``worker`` is the single-worker loop the service pool spawns; ``dlq``
lists, inspects and requeues dead-lettered jobs (see README "Operating
under failure" for the forensics bundle layout and retry tuning);
``verify-artifacts`` integrity-scrubs a tree of JSON artifacts, exiting 1
and quarantining whatever fails its checksum (``--no-quarantine`` to only
report); ``privacy-audit`` runs the empirical privacy attack battery
(membership inference, DCR/NNDR, singling-out) against a registered model
— ``--check`` re-runs it from the sealed report's stored seed and fails
unless the result is bit-identical — or, with ``--export``, against an
exported synthetic dataset bundle.

Long-running commands (``synthesize``, ``resume``, ``serve``, ``worker``)
install SIGTERM/SIGINT handlers that commit the current checkpoint and exit
cleanly instead of dying mid-write; an interrupted run resumes exactly.
"""

from __future__ import annotations

import argparse
import sys

from repro.version import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SERD — synthesize privacy-preserving ER datasets (ICDE'22)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    synthesize = commands.add_parser(
        "synthesize", help="fit SERD on a benchmark and write the surrogate"
    )
    synthesize.add_argument("--dataset", required=True, help="registry name")
    synthesize.add_argument("--scale", type=float, default=0.1)
    synthesize.add_argument("--seed", type=int, default=7)
    synthesize.add_argument("--out", required=True, help="output directory")
    synthesize.add_argument(
        "--no-rejection", action="store_true", help="run the SERD- ablation"
    )
    synthesize.add_argument(
        "--text-backend", choices=("rule", "transformer"), default="rule"
    )
    synthesize.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="commit durable stage checkpoints to DIR; an interrupted run "
        "can be continued with 'repro resume --checkpoint DIR'",
    )
    synthesize.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition S2 into N deterministic shards (run sequentially "
        "here; use the service to fan shards across a worker pool)",
    )

    resume = commands.add_parser(
        "resume", help="continue an interrupted checkpointed synthesize run"
    )
    resume.add_argument(
        "--checkpoint", required=True, metavar="DIR",
        help="checkpoint directory of the interrupted run",
    )
    resume.add_argument(
        "--dataset", required=True,
        help="registry name (must match the checkpointed run)",
    )
    resume.add_argument("--scale", type=float, default=0.1)
    resume.add_argument("--seed", type=int, default=7)
    resume.add_argument("--out", required=True, help="output directory")
    resume.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard count of the interrupted run (must match its "
        "'synthesize --shards')",
    )

    evaluate = commands.add_parser(
        "evaluate", help="Exp-2/Exp-3 matcher evaluation on one dataset"
    )
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--scale", type=float, default=0.1)
    evaluate.add_argument("--seed", type=int, default=7)
    evaluate.add_argument(
        "--matcher", choices=("magellan", "deepmatcher"), default="magellan"
    )

    stats = commands.add_parser("stats", help="print Table II")
    stats.add_argument("--scale", type=float, default=1.0)
    stats.add_argument("--seed", type=int, default=7)

    commands.add_parser("experiments", help="run every table/figure harness")

    register = commands.add_parser(
        "register", help="fit SERD on a benchmark and publish it to a registry"
    )
    register.add_argument("--dataset", required=True, help="registry name")
    register.add_argument("--scale", type=float, default=0.1)
    register.add_argument("--seed", type=int, default=7)
    register.add_argument(
        "--registry", required=True, metavar="DIR", help="model registry root"
    )
    register.add_argument(
        "--name", default=None, help="model name (defaults to the dataset name)"
    )
    register.add_argument(
        "--text-backend", choices=("rule", "transformer"), default="rule"
    )
    register.add_argument(
        "--no-gan", action="store_true", help="skip GAN training"
    )

    serve = commands.add_parser(
        "serve", help="run the synthesis service (HTTP API + worker pool)"
    )
    serve.add_argument("--registry", required=True, metavar="DIR")
    serve.add_argument("--queue", required=True, metavar="DIR")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--lease-seconds", type=float, default=30.0)
    serve.add_argument(
        "--stall-seconds", type=float, default=None,
        help="revoke a job whose checkpoint stops advancing for this long "
        "(default: 4x the lease)",
    )
    serve.add_argument(
        "--read-slots", type=int, default=64,
        help="max in-flight cheap GET requests before shedding with 429",
    )
    serve.add_argument(
        "--write-slots", type=int, default=8,
        help="max in-flight expensive requests (submit/label/score)",
    )
    serve.add_argument(
        "--max-pending-jobs", type=int, default=512,
        help="shed job submissions once this many jobs are pending",
    )
    serve.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="per-worker memory budget; the S2 loop downshifts its chunk "
        "sizes above 80%% of it and checkpoint-and-releases past it",
    )
    serve.add_argument(
        "--disk-low-water-mb", type=float, default=None,
        help="refuse durable writes (and fail /health with disk_low) when "
        "free space at the queue/registry falls below this",
    )

    worker = commands.add_parser(
        "worker", help="run one synthesis worker loop (spawned by 'serve')"
    )
    worker.add_argument("--queue", required=True, metavar="DIR")
    worker.add_argument("--registry", required=True, metavar="DIR")
    worker.add_argument("--lease-seconds", type=float, default=30.0)
    worker.add_argument("--poll-seconds", type=float, default=0.5)
    worker.add_argument(
        "--once", action="store_true", help="run at most one job, then exit"
    )
    worker.add_argument("--memory-budget-mb", type=float, default=None)
    worker.add_argument("--disk-low-water-mb", type=float, default=None)

    submit = commands.add_parser(
        "submit", help="submit a synthesis job to a running service"
    )
    submit.add_argument("--url", required=True, help="service base URL")
    submit.add_argument("--model", required=True)
    submit.add_argument("--model-version", default=None)
    submit.add_argument("--n-a", type=int, default=None)
    submit.add_argument("--n-b", type=int, default=None)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument(
        "--shards",
        type=int,
        default=None,
        help="fan the S2 loop out over N shard sub-jobs across the pool",
    )
    submit.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    submit.add_argument("--timeout", type=float, default=600.0)

    status = commands.add_parser(
        "status", help="query a running service (jobs, models, /stats)"
    )
    status.add_argument("--url", required=True, help="service base URL")
    status.add_argument("--job", default=None, help="job id to show")

    dlq = commands.add_parser(
        "dlq", help="list/inspect/requeue dead-lettered jobs of a queue"
    )
    dlq.add_argument("--queue", required=True, metavar="DIR", help="queue root")
    dlq.add_argument(
        "action", choices=("list", "inspect", "requeue"),
        help="list dead letters, dump one forensics bundle, or requeue a job",
    )
    dlq.add_argument(
        "--job", default=None, help="job id (required for inspect/requeue)"
    )

    audit = commands.add_parser(
        "privacy-audit",
        help="run the privacy attack battery against a registered model "
        "or an exported synthetic dataset",
    )
    audit.add_argument(
        "--registry", metavar="DIR", default=None,
        help="model registry root (registry mode; requires --model)",
    )
    audit.add_argument("--model", default=None, help="registered model name")
    audit.add_argument(
        "--model-version", default=None, help="version to audit (default latest)"
    )
    audit.add_argument(
        "--check", action="store_true",
        help="re-run the battery from the sealed report's stored seed and "
        "exit 1 unless the rebuilt report is identical",
    )
    audit.add_argument(
        "--export", metavar="DIR", default=None,
        help="audit an exported synthetic dataset bundle instead "
        "(data attacks only; requires --dataset)",
    )
    audit.add_argument(
        "--dataset", default=None,
        help="source benchmark the export was synthesized from",
    )
    audit.add_argument("--scale", type=float, default=0.1)
    audit.add_argument(
        "--seed", type=int, default=None,
        help="audit seed (default: the sealed report's stored seed in "
        "registry mode, 7 in export mode)",
    )
    audit.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the report as integrity-enveloped JSON",
    )

    verify = commands.add_parser(
        "verify-artifacts",
        help="integrity-scrub a directory tree of JSON artifacts",
    )
    verify.add_argument(
        "root", metavar="DIR",
        help="tree to scrub (checkpoint dir, queue root, registry, ...)",
    )
    verify.add_argument(
        "--no-quarantine", action="store_true",
        help="report corruption without renaming files aside",
    )

    chaos = commands.add_parser(
        "chaos",
        help="run a deterministic multi-fault chaos campaign against a "
        "live service (see repro.runtime.chaos)",
    )
    chaos.add_argument(
        "action", choices=("run",), help="run a campaign end to end"
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--rounds", type=int, default=3, help="fault rounds in the campaign"
    )
    chaos.add_argument(
        "--workdir", required=True, metavar="DIR",
        help="campaign root (registry + queue + report.json live here)",
    )
    chaos.add_argument("--scale", type=float, default=0.08)
    chaos.add_argument(
        "--families", default=None,
        help="comma-separated fault families (default: all of "
        "disk,net,clock,kill,corruption,resource)",
    )
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument("--memory-budget-mb", type=float, default=2048.0)
    chaos.add_argument(
        "--replay-check", action="store_true",
        help="run the campaign twice and fail unless the schedules, fired "
        "sites and dataset digests match bit for bit",
    )
    return parser


def _graceful_token():
    """SIGTERM/SIGINT trip a cancellation token instead of killing the
    process mid-write; returns ``(token, restore)``."""
    from repro.runtime import CancellationToken, install_signal_handlers

    token = CancellationToken()
    restore = install_signal_handlers(
        token,
        on_signal=lambda name: print(
            f"\n{name} received; committing checkpoint and shutting down ..."
        ),
    )
    return token, restore


def _report_interrupted(error) -> int:
    print(f"Interrupted: {error}")
    if error.checkpointed:
        print("Progress is checkpointed; continue with 'repro resume'.")
    else:
        print("No checkpoint directory was given; progress was discarded.")
    return 130


def _cmd_synthesize(args) -> int:
    from repro.core import SERDConfig, SERDSynthesizer
    from repro.datasets import load_dataset
    from repro.runtime import SynthesisInterrupted

    real = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    print(f"Fitting SERD on {real} ...")
    config = SERDConfig(seed=args.seed, text_backend=args.text_backend)
    if args.no_rejection:
        config = config.without_rejection()
    synthesizer = SERDSynthesizer(config)
    token, restore = _graceful_token()
    try:
        synthesizer.fit(real, checkpoint_dir=args.checkpoint, stop=token)
        output = synthesizer.synthesize_sharded(
            n_shards=args.shards, checkpoint_dir=args.checkpoint, stop=token
        )
    except SynthesisInterrupted as error:
        return _report_interrupted(error)
    finally:
        restore()
    return _report_synthesis(synthesizer, output, args.out)


def _report_synthesis(synthesizer, output, out_dir) -> int:
    from repro.schema import save_dataset

    path = save_dataset(output.dataset, out_dir)
    print(f"Synthesized {output.dataset} -> {path}")
    print(f"Rejections: {output.rejection_stats}")
    print(
        f"Offline {output.offline_seconds:.1f}s, online {output.online_seconds:.1f}s"
    )
    print("Stage health:")
    print(synthesizer.health.summary())
    return 0


def _cmd_resume(args) -> int:
    from repro.core import SERDSynthesizer
    from repro.datasets import load_dataset
    from repro.runtime import SynthesisInterrupted

    real = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    print(f"Resuming SERD from {args.checkpoint} on {real} ...")
    token, restore = _graceful_token()
    try:
        synthesizer = SERDSynthesizer.resume(args.checkpoint, real)
        output = synthesizer.synthesize_sharded(
            n_shards=args.shards, checkpoint_dir=args.checkpoint, stop=token
        )
    except SynthesisInterrupted as error:
        return _report_interrupted(error)
    finally:
        restore()
    return _report_synthesis(synthesizer, output, args.out)


def _cmd_evaluate(args) -> int:
    from repro.core import SERDConfig
    from repro.experiments import ExperimentContext, ExperimentScales
    from repro.experiments import exp2_model_eval, exp3_data_eval

    scales = ExperimentScales(**{args.dataset: args.scale})
    context = ExperimentContext(
        scales=scales,
        seed=args.seed,
        serd_config=SERDConfig(seed=args.seed),
        datasets=(args.dataset,),
    )
    rows = exp2_model_eval.run_model_evaluation(context, args.matcher)
    print(exp2_model_eval.report(rows, args.matcher))
    print()
    rows3 = exp3_data_eval.run_data_evaluation(context, args.matcher)
    print(exp3_data_eval.report(rows3, args.matcher))
    return 0


def _cmd_stats(args) -> int:
    from repro.experiments import table2_datasets

    rows = table2_datasets.dataset_statistics(scale=args.scale, seed=args.seed)
    print(table2_datasets.report(rows))
    return 0


def _cmd_experiments(_args) -> int:
    from repro.experiments.runner import main as run_experiments

    run_experiments()
    return 0


def _cmd_register(args) -> int:
    from repro.core import SERDConfig
    from repro.datasets import load_dataset
    from repro.runtime import SynthesisInterrupted
    from repro.service import ModelRegistry

    real = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    name = args.name or args.dataset
    registry = ModelRegistry(args.registry)
    config = SERDConfig(seed=args.seed, text_backend=args.text_backend)
    print(f"Fitting SERD on {real} and publishing as {name!r} ...")
    token, restore = _graceful_token()
    try:
        entry = registry.register(
            name, real, config, train_gan=not args.no_gan, stop=token
        )
    except SynthesisInterrupted as error:
        print(f"Interrupted: {error}; nothing was published.")
        return 130
    finally:
        restore()
    print(
        f"Registered {entry.name}/{entry.version} "
        f"(config {entry.meta['config_hash']}, "
        f"dataset {entry.meta['dataset']['fingerprint']})"
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.service.server import SynthesisService

    service = SynthesisService(
        args.registry,
        args.queue,
        host=args.host,
        port=args.port,
        n_workers=args.workers,
        lease_seconds=args.lease_seconds,
        stall_seconds=args.stall_seconds,
        read_slots=args.read_slots,
        write_slots=args.write_slots,
        max_pending_jobs=args.max_pending_jobs,
        memory_budget_mb=args.memory_budget_mb,
        disk_low_water_mb=args.disk_low_water_mb,
    )
    token, restore = _graceful_token()
    try:
        service.start()
        print(f"Serving SERD synthesis API on {service.url}")
        print(
            f"  registry={service.registry.root}  queue={service.queue.root}  "
            f"workers={args.workers}"
        )
        token.wait()
        print("Draining workers ...")
        service.stop()
    finally:
        restore()
    print("Service stopped; queue state is durable — restart to continue.")
    return 0


def _cmd_worker(args) -> int:
    from repro.runtime import resources
    from repro.service import JobQueue, ModelRegistry, Worker

    governor = resources.governor_from_flags(
        args.memory_budget_mb, args.disk_low_water_mb
    )
    if governor is not None:
        resources.install(governor)
    token, restore = _graceful_token()
    try:
        worker = Worker(
            JobQueue(args.queue),
            ModelRegistry(args.registry),
            lease_seconds=args.lease_seconds,
            stop=token,
        )
        if args.once:
            ran = worker.run_once()
            print(f"worker {worker.worker_id}: {'ran 1 job' if ran else 'queue empty'}")
        else:
            completed = worker.run_forever(poll_seconds=args.poll_seconds)
            print(f"worker {worker.worker_id}: drained after {completed} job(s)")
    finally:
        restore()
    return 0


def _cmd_submit(args) -> int:
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    job = client.submit(
        args.model,
        version=args.model_version,
        n_a=args.n_a,
        n_b=args.n_b,
        seed=args.seed,
        shards=args.shards,
    )
    shard_note = f" shards={job.get('shards')}" if (job.get("shards") or 1) > 1 else ""
    print(f"Submitted job {job['id']} ({job['model']}{shard_note})")
    if args.wait:
        job = client.wait(job["id"], timeout=args.timeout)
        print(json.dumps(job, indent=2))
        return 0 if job["status"] == "done" else 1
    return 0


def _cmd_status(args) -> int:
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.job:
        print(json.dumps(client.job(args.job), indent=2))
        return 0
    print("Models:")
    for meta in client.models():
        dataset = meta.get("dataset", {})
        print(
            f"  {meta['name']}/{meta.get('version')}  "
            f"dataset={dataset.get('name')} ({dataset.get('n_a')}x{dataset.get('n_b')})  "
            f"config={meta.get('config_hash')}"
        )
    print("Jobs:")
    for job in client.jobs():
        print(f"  {job['id']}  {job['status']:8s}  model={job['model']}")
    print("Stats:")
    print(json.dumps(client.stats(), indent=2))
    return 0


def _cmd_dlq(args) -> int:
    import json

    from repro.service.dlq import DeadLetterQueue

    dlq = DeadLetterQueue(args.queue)
    if args.action == "list":
        letters = dlq.list()
        if not letters:
            print("dead-letter queue is empty")
            return 0
        for job in letters:
            print(DeadLetterQueue.describe(job))
        return 0
    if args.job is None:
        print(f"--job is required for 'dlq {args.action}'", file=sys.stderr)
        return 2
    if args.action == "inspect":
        forensics = dlq.inspect(args.job)
        print(DeadLetterQueue.summarize(forensics))
        print(json.dumps(forensics, indent=2))
        return 0
    job = dlq.requeue(args.job)
    print(f"Requeued {job.id} (model={job.model}); attempts reset")
    return 0


def _cmd_privacy_audit(args) -> int:
    from repro.runtime.io import atomic_write_json

    if bool(args.registry) == bool(args.export):
        print(
            "privacy-audit needs exactly one of --registry (with --model) "
            "or --export (with --dataset)",
            file=sys.stderr,
        )
        return 2
    if args.registry:
        report, exit_code = _registry_audit(args)
    else:
        report, exit_code = _export_audit(args)
    if report is not None and args.out:
        atomic_write_json(args.out, report, indent=2)
        print(f"Wrote {args.out}")
    return exit_code


def _registry_audit(args) -> tuple[dict | None, int]:
    """Rebuild a registered model's privacy report; optionally verify it."""
    from repro.privacy.report import (
        PrivacyAuditConfig,
        build_privacy_report,
        format_report,
    )
    from repro.runtime.io import read_json
    from repro.service import ModelRegistry

    if not args.model:
        print("--model is required with --registry", file=sys.stderr)
        return None, 2
    registry = ModelRegistry(args.registry)
    try:
        synthesizer, entry = registry.load(args.model, args.model_version)
    except KeyError as error:
        print(str(error), file=sys.stderr)
        return None, 2
    report_path = (
        registry.version_dir(args.model, entry.version) / "privacy_report.json"
    )
    stored = None
    if report_path.exists():
        stored = read_json(
            report_path,
            what=f"privacy report for {args.model}/{entry.version}",
        )
    if args.check and stored is None:
        print(
            f"{args.model}/{entry.version} has no sealed privacy_report.json "
            "(registered with audit disabled); nothing to check",
            file=sys.stderr,
        )
        return None, 1
    # Replay the sealed report's exact audit parameters unless overridden;
    # loading restored the post-fit RNG position, so same seed + same
    # config reproduces the sealed report bit-for-bit.
    if stored is not None:
        seed = args.seed if args.seed is not None else stored["audit"]["seed"]
        config = PrivacyAuditConfig.from_dict(stored["audit"]["config"])
    else:
        seed = args.seed if args.seed is not None else entry.meta["config"]["seed"]
        config = None
    report = build_privacy_report(
        synthesizer, synthesizer._real, seed=seed, config=config
    )
    print(format_report(report))
    if args.check:
        if report == stored:
            print(
                f"OK: rebuilt report matches the sealed artifact for "
                f"{args.model}/{entry.version}"
            )
            return report, 0
        print(
            f"MISMATCH: rebuilt report differs from the sealed artifact for "
            f"{args.model}/{entry.version}",
            file=sys.stderr,
        )
        return report, 1
    return report, 0


def _export_audit(args) -> tuple[dict | None, int]:
    """Data-only attack battery over an exported synthetic dataset."""
    from repro.datasets import load_dataset
    from repro.privacy.attacks import nearest_record_battery
    from repro.privacy.report import REPORT_FORMAT, PrivacyAuditConfig, format_report
    from repro.schema.io import load_saved_dataset
    from repro.similarity.vector import SimilarityModel

    if not args.dataset:
        print("--dataset is required with --export", file=sys.stderr)
        return None, 2
    seed = args.seed if args.seed is not None else 7
    try:
        synthetic = load_saved_dataset(args.export)
    except FileNotFoundError as error:
        print(f"cannot read export bundle: {error}", file=sys.stderr)
        return None, 2
    real = load_dataset(args.dataset, scale=args.scale, seed=seed)
    model = SimilarityModel.from_relations(real.table_a, real.table_b)
    config = PrivacyAuditConfig()
    sides = {}
    for side, syn_table, real_table in (
        ("table_a", synthetic.table_a, real.table_a),
        ("table_b", synthetic.table_b, real.table_b),
    ):
        audit = nearest_record_battery(
            model,
            list(syn_table),
            list(real_table),
            singling_threshold=config.singling_threshold,
            max_cells=config.max_cells,
        )
        sides[side] = audit.to_dict()
    report = {
        "format": REPORT_FORMAT,
        "audit": {"seed": int(seed), "config": config.to_dict()},
        "dataset": {
            "name": real.name,
            "n_real_a": len(real.table_a),
            "n_real_b": len(real.table_b),
            "n_audit_a": len(synthetic.table_a),
            "n_audit_b": len(synthetic.table_b),
        },
        "claimed_epsilon": None,
        "delta": config.delta,
        "nearest_record": sides,
        "membership_inference": {
            "applicable": False,
            "reason": "export-mode audit has no fitted model to attack",
        },
    }
    print(format_report(report))
    return report, 0


def _cmd_verify_artifacts(args) -> int:
    from repro.runtime.integrity import scrub_tree

    try:
        report = scrub_tree(args.root, quarantine=not args.no_quarantine)
    except FileNotFoundError:
        print(f"no such directory: {args.root}", file=sys.stderr)
        return 2
    print(
        f"checked {report['checked']} artifact(s) under {report['root']}: "
        f"{report['verified']} verified, {report['unverified']} without "
        f"envelopes, {len(report['corrupt'])} corrupt"
    )
    if report["jsonl_files"]:
        print(
            f"scanned {report['jsonl_files']} .jsonl log(s): "
            f"{report['jsonl_torn_lines']} torn line(s) (tolerated by readers)"
        )
    if report["dlq"]["bundles"]:
        print(
            f"scrubbed {report['dlq']['bundles']} DLQ forensics bundle(s): "
            f"{report['dlq']['corrupt']} corrupt"
        )
    if report["already_quarantined"]:
        print(f"{report['already_quarantined']} file(s) already quarantined")
    for item in report["corrupt"]:
        print(f"  CORRUPT {item['path']}: {item['reason']}")
    for item in report["protected_corrupt"]:
        print(f"  CORRUPT (protected) {item['path']}: {item['reason']}")
    if report["protected_corrupt"]:
        print(
            f"{len(report['protected_corrupt'])} sealed report(s) failed "
            "verification; protected files are reported but never "
            "quarantined — investigate them in place"
        )
    if report["corrupt"]:
        verb = "quarantined" if report["quarantined"] else "left in place"
        print(f"corrupt file(s) {verb}; affected stages re-run on next use")
    if report["corrupt"] or report["protected_corrupt"]:
        return 1
    return 0


def _cmd_chaos(args) -> int:
    import json

    from repro.runtime.chaos import FAMILIES, replay_fingerprint, run_campaign
    from repro.runtime.io import atomic_write_json, as_path

    families = (
        tuple(f.strip() for f in args.families.split(",") if f.strip())
        if args.families
        else FAMILIES
    )
    workdir = as_path(args.workdir)
    oracle_cache: dict = {}

    def one_run(tag: str) -> dict:
        run_dir = workdir / tag if args.replay_check else workdir
        report = run_campaign(
            run_dir,
            seed=args.seed,
            rounds=args.rounds,
            families=families,
            scale=args.scale,
            n_workers=args.workers,
            memory_budget_mb=args.memory_budget_mb,
            oracle_cache=oracle_cache,
        )
        atomic_write_json(run_dir / "report.json", report, indent=2)
        print(f"chaos: report written to {run_dir / 'report.json'}")
        return report

    report = one_run("run1")
    ok = report["ok"]
    if args.replay_check:
        replay = one_run("run2")
        first, second = replay_fingerprint(report), replay_fingerprint(replay)
        if first != second:
            print("chaos: REPLAY MISMATCH")
            print(json.dumps({"first": first, "second": second}, indent=2))
            ok = False
        else:
            print(
                f"chaos: replay check passed — {args.rounds} round(s) "
                "bit-identical (schedule, fired sites, dataset digests)"
            )
        ok = ok and replay["ok"]
    for failure in report["failures"]:
        print(f"chaos: INVARIANT FAILED: {failure}")
    print(f"chaos: campaign seed={args.seed} rounds={args.rounds} "
          f"{'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "resume": _cmd_resume,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
    "experiments": _cmd_experiments,
    "register": _cmd_register,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "dlq": _cmd_dlq,
    "privacy-audit": _cmd_privacy_audit,
    "verify-artifacts": _cmd_verify_artifacts,
    "chaos": _cmd_chaos,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
