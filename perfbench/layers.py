"""Which ``repro`` callables the traced run wraps, and the per-layer metrics.

Targets are public functions and methods at layer boundaries, each called
at most a few thousand times per job.  Per-string hot paths (``qgrams``,
``jaccard``, single column similarities) are deliberately absent: they run
tens of thousands of times per job and a wrapper there would dominate what
it measures.
"""

from __future__ import annotations

import math
import os

from tracing import Target


def _rows(_args, _kwargs, result):
    return len(result)


def _label_pairs(args, _kwargs, _result):
    return len(args[0]) * len(args[1])  # the cross pairs of table_a x table_b


def _tokens(_args, _kwargs, result):
    return sum(len(seq) for seq in result)


def _export_bytes(_args, _kwargs, result):
    return sum(
        entry.stat().st_size for entry in os.scandir(result) if entry.is_file()
    )


TARGETS = (
    # core.serd: job structure (stage seconds come from the health report)
    Target("repro.core.serd:SERDSynthesizer", "fit", "serd.fit"),
    Target("repro.core.serd:SERDSynthesizer", "synthesize", "serd.synthesize"),
    Target("repro.core.serd:SERDSynthesizer", "synthesize_shard", "serd.synthesize_shard"),
    Target("repro.core.serd:SERDSynthesizer", "assemble_shard_runs", "serd.assemble"),
    # core.rejection
    Target("repro.core.rejection:RejectionPolicy", "evaluate", "rejection.evaluate"),
    # distributions
    Target("repro.distributions.divergence:PairJsdEstimator", "__call__", "distributions.jsd"),
    Target("repro.distributions.incremental:IncrementalGMM", "update", "distributions.tracker_update"),
    Target("repro.distributions.mixture:PairDistribution", "posterior_match", "distributions.posterior"),
    Target("repro.distributions.gmm", "fit_gmm", "distributions.gmm_fit"),
    # gan
    Target("repro.gan.training:TabularGAN", "fit", "gan.fit"),
    Target("repro.gan.training:TabularGAN", "discriminator_score", "gan.discriminator"),
    # core.synthesis, textgen
    Target("repro.core.synthesis:EntityFactory", "synthesize_entity", "synthesis.entity"),
    Target("repro.textgen.rules:RuleTextSynthesizer", "synthesize", "textgen.rules"),
    Target("repro.textgen.transformer_backend:TransformerTextSynthesizer", "fit",
           "textgen.transformer_fit"),
    Target("repro.textgen.transformer_backend:TransformerTextSynthesizer", "synthesize",
           "textgen.transformer_synth"),
    # nn
    Target("repro.nn.transformer:Seq2SeqTransformer", "generate", "nn.generate", _tokens),
    # privacy
    Target("repro.privacy.dpsgd", "dp_sgd_step", "privacy.dpsgd"),
    Target("repro.privacy.dpsgd", "dp_sgd_step_vectorized", "privacy.dpsgd"),
    Target("repro.privacy.report", "build_privacy_report", "privacy.audit"),
    # similarity
    Target("repro.similarity.vector:SimilarityModel", "one_vs_many",
           "similarity.one_vs_many", _rows),
    Target("repro.similarity.vector:SimilarityModel", "vectors", "similarity.vectors", _rows),
    # core.labeling
    Target("repro.core.labeling", "label_all_pairs", "labeling.label_all_pairs", _label_pairs),
    # runtime
    Target("repro.runtime.io", "atomic_write_json", "runtime.json_write"),
    Target("repro.runtime.checkpoint:StageCheckpointer", "commit", "runtime.checkpoint_commit"),
    # schema
    Target("repro.schema.io", "save_dataset", "schema.export", _export_bytes),
    # service
    Target("repro.service.registry:ModelRegistry", "register", "service.register"),
    Target("repro.service.registry:ModelRegistry", "load", "service.model_load"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


JOBS = ("job",)
ONLINE = ("job", "label")


def layer_metrics(tracer, counters: dict, stages: dict, service: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Job-phase layers count spans of the jobs (trace ids ``job<i>``); the
    posterior and batch similarity also count the label requests
    (``label<i>``), and fit-phase layers count every span of the run.
    ``counters`` holds summed per-job deltas of the program's own stats
    functions; ``stages`` the health-report stage seconds; ``service`` the
    client-side service figures (zeros for library workloads).
    """
    def busy(name):
        return tracer.busy(name, JOBS)

    out: dict[str, float] = {}
    for stage in ("s1", "text", "gan", "s2", "s3"):
        out[f"serd.{stage}_s"] = stages.get(stage, 0.0)

    seconds, calls, _ = busy("rejection.evaluate")
    out["rejection.evaluate_calls"] = calls
    out["rejection.evaluate_s"] = seconds
    out["rejection.accept_ratio"] = _ratio(counters["accepted"], counters["evaluated"])
    out["rejection.fallback_frac"] = _ratio(counters["fallback"], counters["slots"])

    seconds, calls, _ = busy("distributions.jsd")
    out["distributions.jsd_calls"] = calls
    out["distributions.jsd_s"] = seconds
    out["distributions.tracker_update_s"] = busy("distributions.tracker_update")[0]
    out["distributions.posterior_s"] = tracer.busy("distributions.posterior", ONLINE)[0]
    out["distributions.gmm_fit_s"] = tracer.busy("distributions.gmm_fit")[0]

    out["gan.fit_s"] = tracer.busy("gan.fit")[0]
    seconds, calls, _ = busy("gan.discriminator")
    out["gan.discriminator_calls"] = calls
    out["gan.discriminator_s"] = seconds

    seconds, calls, _ = busy("synthesis.entity")
    out["synthesis.entity_calls"] = calls
    out["synthesis.entity_s"] = seconds
    out["textgen.rules_s"] = busy("textgen.rules")[0]
    out["textgen.transformer_fit_s"] = tracer.busy("textgen.transformer_fit")[0]
    out["textgen.transformer_synth_s"] = busy("textgen.transformer_synth")[0]

    seconds, _, tokens = busy("nn.generate")
    out["nn.decode_tokens"] = tokens
    out["nn.decode_tokens_per_s"] = _ratio(tokens, seconds)
    out["nn.trace_hit_ratio"] = _ratio(
        counters["trace_hits"], counters["trace_hits"] + counters["trace_misses"]
    )
    out["nn.trace_evictions"] = counters["trace_evictions"]
    out["nn.schedule_hit_ratio"] = _ratio(
        counters["schedule_hits"],
        counters["schedule_hits"] + counters["schedule_misses"],
    )

    seconds, calls, _ = tracer.busy("privacy.dpsgd")
    out["privacy.dpsgd_steps"] = calls
    out["privacy.dpsgd_s"] = seconds
    out["privacy.audit_s"] = tracer.busy("privacy.audit")[0]
    out["privacy.epsilon"] = counters["epsilon"]

    seconds, calls, _ = busy("similarity.one_vs_many")
    out["similarity.one_vs_many_calls"] = calls
    out["similarity.one_vs_many_s"] = seconds
    seconds, _, pairs = tracer.busy("similarity.vectors", ONLINE)
    out["similarity.vectors_pairs"] = pairs
    out["similarity.vectors_s"] = seconds

    seconds, _, pairs = busy("labeling.label_all_pairs")
    out["labeling.pairs"] = pairs
    out["labeling.s"] = seconds
    out["labeling.pairs_per_s"] = _ratio(pairs, seconds)

    seconds, calls, _ = busy("runtime.json_write")
    out["runtime.json_writes"] = calls
    out["runtime.json_write_s"] = seconds
    seconds, calls, _ = busy("runtime.checkpoint_commit")
    out["runtime.checkpoint_commits"] = calls
    out["runtime.checkpoint_s"] = seconds
    out["runtime.artifacts_verified"] = counters["artifacts_verified"]

    seconds, _, nbytes = busy("schema.export")
    out["schema.export_s"] = seconds
    out["schema.export_mb"] = nbytes / 1e6

    out["service.register_s"] = tracer.busy("service.register")[0]
    out["service.model_load_s"] = busy("service.model_load")[0]
    out.update(service)
    return {k: (float(v) if math.isfinite(v) else 0.0) for k, v in out.items()}


def layer_mix(tracer, values: dict, job_seconds: float) -> dict[str, float]:
    """The share figures behind each workload's stated mix of layers."""
    s2 = values["serd.s2_s"]
    rejection_side = tracer.busy((
        "rejection.evaluate", "distributions.jsd", "distributions.tracker_update",
        "gan.discriminator",
    ), JOBS)[0]
    return {
        "rejection_distributions_gan_share_of_s2": _ratio(rejection_side, s2),
        "transformer_synth_share_of_s2": _ratio(values["textgen.transformer_synth_s"], s2),
        "labeling_share_of_job_time": _ratio(values["labeling.s"], job_seconds),
        "rejection_evaluate_calls": values["rejection.evaluate_calls"],
    }
