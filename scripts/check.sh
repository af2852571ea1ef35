#!/usr/bin/env bash
# Repo hygiene gate: formatting and lints, as CI would run them.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc gate: broken, ambiguous or private intra-doc links fail the
# build. Covers the spyker-* packages only; the vendored crates are
# API-compatible stubs whose docs are not ours to police.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p 'spyker-*'

# Byzantine-robustness integration tests (adversarial clients vs the
# validation gate + robust aggregation pipeline; see DESIGN.md §8).
cargo test -q --release --test byzantine

# Observability layer (see DESIGN.md §12): typed-registry unit tests,
# histogram/series property tests, and the catalog↔DESIGN.md sync gate —
# then the golden run-report and span-trace pins (byte-identical reports
# across builds) and the metric-catalog registration gate.
cargo test -q --release -p spyker-obs
cargo test -q --release --test golden_report --test metric_catalog

# Criterion benches must at least compile; the smoke runner then enforces
# the GEMM regression gate (blocked ≥ 3× naive on 128×128, see DESIGN.md
# §10) and refreshes BENCH_tensor.json at the repo root.
cargo bench --workspace --offline --no-run
cargo run -q --release -p spyker-bench --bin bench_smoke BENCH_tensor.json

# Scheduler scalability gate (see DESIGN.md §15): paired heap-vs-wheel
# timer-storm runs at 1k/10k/100k nodes with a 20×-ballast pending set.
# The timer wheel must sustain ≥ 5× the heap's events/sec at 100k;
# refreshes BENCH_simnet.json at the repo root.
cargo run -q --release -p spyker-bench --bin bench_simnet BENCH_simnet.json

# Deterministic simulation-test sweep (see DESIGN.md §11): 64 seeded
# random scenarios under the protocol-invariant oracles. On a violation
# the failing scenario is shrunk and written to target/simtest/ as a
# repro_<seed>.ron. Time-capped so a pathological environment cannot hang
# CI; determinism is per-seed, so a capped sweep still checks an exact
# prefix of the full one.
cargo run -q --release -p spyker-simtest --bin simtest -- \
    --seeds 64 --budget-events 200k --time-cap-secs 120

# Membership-churn sweep (see DESIGN.md §14): the same oracle suite over
# 32 scenarios with scheduled server joins and voluntary leaves layered
# on top of each seed's usual faults — token conservation, age
# conservation and the exchange ledger must hold across ring epochs.
cargo run -q --release -p spyker-simtest --bin simtest -- \
    --churn --seeds 32 --budget-events 200k --time-cap-secs 120

# Codec sweep (see DESIGN.md §16): 32 scenarios with randomized
# update-compression pipelines (quantization, top-k sparsification, delta
# encoding) layered on each seed's usual faults. The byte-accounting
# oracle holds `net.bytes.encoded ≤ net.bytes.raw` at every event and
# reconciles the counters against the per-client encoder ledgers at the
# end of each run.
cargo run -q --release -p spyker-simtest --bin simtest -- \
    --codec --seeds 32 --budget-events 200k --time-cap-secs 120

# Scenario-library gates (see DESIGN.md §17). First the pinned regression
# corpus: every committed scenarios/<preset>.ron must match its generator
# byte-for-byte and reproduce its golden end-state fingerprint — workload
# drift in any preset is a hard failure, refreshed only deliberately via
# `--write-scenarios` / `--update-pinned`. Then a 16-seed randomized sweep
# per preset under the full oracle suite (availability oracle included),
# time-capped like the other sweeps.
cargo run -q --release -p spyker-simtest --bin simtest -- --check-pinned
for preset in diurnal device_tiers flash_crowd regional_outage staleness_storm; do
    cargo run -q --release -p spyker-simtest --bin simtest -- \
        --preset "$preset" --seeds 16 --budget-events 200k --time-cap-secs 60
done

# 100k-logical-client scale smoke (see DESIGN.md §15): one cohort-batched
# scenario under the full per-event oracle suite — wheel scheduler,
# flow-shared links, 782 cohort actors, clients uploading through the
# paper codec pipeline (`delta → topk(1%) → q8`, so the codec byte oracle
# runs at scale too). Must finish oracle-green, process updates, and clear
# a 20k events/sec floor (~10× headroom below the measured rate, so only a
# real regression trips it). Skippable on machines where a release-mode
# throughput floor is meaningless: SPYKER_SKIP_SCALE=1.
if [[ "${SPYKER_SKIP_SCALE:-0}" != "1" ]]; then
    cargo run -q --release -p spyker-simtest --bin simtest -- \
        --scale 100k --cohort 128 --codec --budget-events 10m \
        --min-events-per-sec 20k
else
    echo "SPYKER_SKIP_SCALE=1 — skipping the 100k-client scale smoke"
fi

# Multi-process TCP soak (see DESIGN.md §13): 2 servers + 6 clients + a
# malformed-frame attacker on localhost, one server SIGKILLed and
# restarted mid-training. Skippable where spawning processes or binding
# sockets is off-limits: SPYKER_SKIP_SOAK=1.
./scripts/soak.sh
