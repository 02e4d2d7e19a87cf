"""Reference implementations the production paths are checked against.

Each module holds the slow, obviously-correct version of an operation whose
production path in ``src/repro`` is optimized.  Tests and ``benchmarks/``
import these modules; nothing under ``src/`` does.

- :mod:`.densities` — per-component scipy Gaussian, mixture and
  O-distribution densities (``solve_triangular`` + ``logsumexp``).
- :mod:`.similarity` — one-pair-at-a-time S3 labeling and nearest-record
  battery, full profile rebuilds and un-memoized q-grams.
- :mod:`.decode` — full-prefix re-decode, the oracle for KV-cached
  ``Seq2SeqTransformer.generate``.
- :mod:`.optim` — allocating SGD and Adam updates, the oracle for the
  in-place ``out=`` optimizer steps.
- :mod:`.seed_path` — a scoped patch that runs the sequential S2 loop on
  all of the above plus per-call JSD (the benchmark baseline).
"""
