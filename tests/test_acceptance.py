"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Tolerances are pinned here;
every expected value is either analytic, produced by an independent oracle in
this file, or an exact determinism claim.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from specverify.analysis import analyze_trace
from specverify.cli import main
from specverify.engine import DecodeConfig, decode
from specverify.logits import logit_ratio, top_two
from specverify.models import (
    AdversarialDraftModel,
    PerturbedDraftConfig,
    PerturbedDraftModel,
    SyntheticTargetConfig,
    SyntheticTargetModel,
)
from specverify.trace import (
    TraceFile,
    TraceHeader,
    TraceRecorder,
    read_trace,
    write_trace,
)
from specverify.verify import Decision, VerificationPolicy, decide_position, verify_chain

from conftest import make_pair
from test_trace import assert_records_bit_equal, fuzz_records
from trace_oracle import replay_cycles

THETA_GRID = (0.84, 0.86, 0.88, 0.90, 0.92, 0.94, 0.96)
K_GRID = (6, 9, 12, 15)


def report(criterion, name):
    print(f"[acceptance] criterion {criterion} ({name}): PASS")


def read_column(path, column):
    with open(path, newline="") as fh:
        return [row[column] for row in csv.DictReader(fh)]


def test_criterion_1_strict_equivalence():
    """MarginAware(theta=1.0) is byte-identical to Strict over 100 seeded runs."""
    strict = VerificationPolicy.strict()
    theta_one = VerificationPolicy.margin_aware(1.0)
    for seed in range(100):
        target, draft = make_pair(target_seed=1000 + seed, noise_seed=2000 + seed)
        prompt = [seed % 64, (seed * 13) % 64]
        cfg_a = DecodeConfig(policy=theta_one, k=7, max_tokens=64, seed=seed)
        cfg_b = DecodeConfig(policy=strict, k=7, max_tokens=64, seed=seed)
        out_a, metrics_a = decode(target, draft, cfg_a, prompt)
        out_b, metrics_b = decode(target, draft, cfg_b, prompt)
        assert out_a == out_b
        assert metrics_a == metrics_b
        assert metrics_a.relaxed_count == 0
    report(1, "strict equivalence at theta=1.0, 100 runs")


def test_criterion_2_vanilla_identity():
    """Strict decode equals a direct autoregressive greedy loop, 50 seeds."""

    def vanilla_oracle(target, prompt, n):
        # manual loop, independent of engine and of np.argmax
        ctx = list(prompt)
        out = []
        for _ in range(n):
            z = target.score(ctx)
            best = 0
            for i in range(1, len(z)):
                if z[i] > z[best]:
                    best = i
            out.append(best)
            ctx.append(best)
        return out

    for seed in range(50):
        target, draft = make_pair(target_seed=3000 + seed, noise_seed=4000 + seed)
        prompt = [(seed * 7) % 64]
        cfg = DecodeConfig(policy=VerificationPolicy.strict(), k=7, max_tokens=48, seed=seed)
        out, _ = decode(target, draft, cfg, prompt)
        assert out == vanilla_oracle(target, prompt, len(out))
    report(2, "strict decode == vanilla greedy loop, 50 seeds")


def test_criterion_3_tau_ceiling_and_floor():
    """sigma=0 drafter pins tau to K+1 exactly; adversarial drafter pins 1.0."""
    target = SyntheticTargetModel(SyntheticTargetConfig(seed=42))
    aligned = PerturbedDraftModel(target, PerturbedDraftConfig(noise_seed=1, noise_scale=0.0))
    cfg = DecodeConfig(policy=VerificationPolicy.strict(), k=7, max_tokens=80)
    _, m = decode(target, aligned, cfg, [1, 2])
    assert m.tau == 8.0

    adversarial = AdversarialDraftModel(target)
    for policy in (VerificationPolicy.strict(), VerificationPolicy.margin_aware(0.9)):
        cfg = DecodeConfig(policy=policy, k=7, max_tokens=48)
        _, m = decode(target, adversarial, cfg, [1, 2])
        assert m.tau == 1.0
    report(3, "tau = 8.0 ceiling and tau = 1.0 floor, exact")


def test_criterion_4_bruteforce_oracle_equivalence():
    """10,000 positions: decisions equal an independent full-sort three-branch rule."""
    rng = np.random.default_rng(20240)
    mismatches = 0
    for _ in range(10_000):
        loc = rng.choice([-6.0, 4.0], p=[0.1, 0.9])
        z = rng.normal(loc, 2.5, 32)
        order = sorted(range(32), key=lambda i: (-z[i], i))
        v1, v2 = order[0], order[1]
        u = rng.random()
        if u < 0.45:
            draft_tok = v1
        elif u < 0.75:
            draft_tok = v2
        else:
            draft_tok = int(rng.integers(0, 32))
        theta = float(rng.choice(THETA_GRID))
        policy = VerificationPolicy.margin_aware(theta)

        # oracle: literal three-branch rule on the sorted vector
        z1, z2 = z[v1], z[v2]
        if draft_tok == v1:
            expected = ("exact", draft_tok)
        elif draft_tok == v2 and z1 > 0 and z2 / z1 > theta:
            expected = ("relaxed", draft_tok)
        else:
            expected = ("rejected", v1)

        d = decide_position(top_two(z), draft_tok, policy)
        if (d.label.value, d.emitted_token) != expected:
            mismatches += 1
    assert mismatches == 0
    report(4, "verification oracle equivalence, 10,000 positions, 0 mismatches")


def test_criterion_5_ratio_margin_identity_and_agreement():
    """|r - (1 - margin/z1)| <= 1e-12 and margin-form == ratio-form, 10,000 pairs."""
    rng = np.random.default_rng(555)
    z1s = rng.uniform(0.01, 30.0, 10_000)
    z2s = z1s * rng.uniform(0.0, 1.0, 10_000)
    thetas = rng.choice(THETA_GRID, size=10_000)
    worst = 0.0
    for z1, z2, theta in zip(z1s, z2s, thetas):
        r = logit_ratio(z1, z2)
        worst = max(worst, abs(r - (1.0 - (z1 - z2) / z1)))
        assert (r > theta) == ((z1 - z2) < (1.0 - theta) * z1)
    assert worst <= 1e-12
    report(5, f"ratio-margin identity (worst |diff| = {worst:.2e}) and form agreement")


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    # sampled drafting spreads the drafted tokens across the top-2 boundary,
    # so the theta grid discriminates; greedy trajectories orbit and tie
    path = tmp_path_factory.mktemp("acc") / "fixture.trace"
    target, draft = make_pair(target_seed=42, noise_seed=7, noise_scale=0.5)
    recorder = TraceRecorder(64, temperature=0.7)
    cfg = DecodeConfig(
        policy=VerificationPolicy.margin_aware(0.9), k=7, max_tokens=2000, seed=1,
        draft_mode="sample", temperature=0.7,
    )
    decode(target, draft, cfg, [1, 2], recorder=recorder)
    write_trace(recorder.to_trace("acceptance fixture"), path)
    return path


def test_criterion_6a_6b_theta_monotonicity(recorded_trace, tmp_path):
    """Replaying one trace across the theta grid: acceptance and speedup
    non-increasing in theta, per cycle and over the emitted CSV."""
    csv_paths = []
    for i, theta in enumerate(THETA_GRID):
        out = tmp_path / f"replay_{i}.csv"
        code = main(
            ["replay", str(recorded_trace), "--policy", "margin",
             "--theta", str(theta), "--k", "7", "--out", str(out)]
        )
        assert code == 0
        csv_paths.append(out)

    accepted, speedups = [], []
    for path in csv_paths:
        exact = int(read_column(path, "exact_count")[0])
        relaxed = int(read_column(path, "relaxed_count")[0])
        accepted.append(exact + relaxed)
        speedups.append(float(read_column(path, "simulated_speedup")[0]))
    assert all(a >= b for a, b in zip(accepted, accepted[1:]))
    assert all(a >= b for a, b in zip(speedups, speedups[1:]))

    # exact per-cycle dominance on the aligned replayed cycles
    trace = read_trace(recorded_trace)
    per_theta = [replay_cycles(trace, VerificationPolicy.margin_aware(t), 7) for t in THETA_GRID]
    for looser, tighter in zip(per_theta, per_theta[1:]):
        for cyc_a, cyc_b in zip(looser, tighter):
            assert cyc_a.accepted_count >= cyc_b.accepted_count
    report(6, "a+b: acceptance and speedup non-increasing over theta grid")


def test_criterion_6c_k_monotonicity(tmp_path):
    """Live K sweep {6,9,12,15}: tau non-decreasing in K over the emitted CSV."""
    out = tmp_path / "ksweep.csv"
    code = main(
        ["sweep", "--k", "6,9,12,15", "--theta", "0.9", "--policy", "margin",
         "--max-tokens", "1500", "--seed", "2024", "--out", str(out)]
    )
    assert code == 0
    taus = [float(t) for t in read_column(out, "tau")]
    ks = [int(k) for k in read_column(out, "k")]
    assert ks == list(K_GRID)
    assert all(a <= b for a, b in zip(taus, taus[1:]))
    report(6, f"c: tau non-decreasing in K ({', '.join(f'{t:.2f}' for t in taus)})")


def test_criterion_7_workflow_scenario_fixtures():
    """Constructed r=0.911 and r=0.728 fixtures decide relax / reject at theta=0.9."""
    policy = VerificationPolicy.margin_aware(0.9)
    accept_side = np.array([10.0, 9.11, 1.0, 0.0])
    reject_side = np.array([10.0, 7.28, 1.0, 0.0])
    assert logit_ratio(10.0, 9.11) == pytest.approx(0.911, abs=1e-12)
    assert logit_ratio(10.0, 7.28) == pytest.approx(0.728, abs=1e-12)

    relaxed = verify_chain([1], [accept_side], policy, bonus_logits=accept_side)
    assert relaxed.decisions[0].label is Decision.RELAXED
    assert relaxed.committed_tokens[0] == 1  # the runner-up draft is kept

    rejected = verify_chain([1], [reject_side], policy)
    assert rejected.decisions[0].label is Decision.REJECTED
    assert rejected.committed_tokens == (0,)  # top-1 correction
    report(7, "workflow fixtures: r=0.911 relaxed, r=0.728 rejected")


def test_criterion_8_round_trip_and_live_replay(tmp_path):
    """10,000 fuzzed records round-trip bit-exactly; replay reproduces live decisions."""
    records = fuzz_records(np.random.default_rng(777), 10_000, weird_floats=True)
    path = tmp_path / "fuzz10k.trace"
    write_trace(TraceFile(TraceHeader(64, "fuzz 10k"), records), path)
    back = read_trace(path)
    assert_records_bit_equal(back.records, records)

    target, draft = make_pair()
    recorder = TraceRecorder(64, temperature=1.0)
    live_cycles = []
    cfg = DecodeConfig(policy=VerificationPolicy.margin_aware(0.9), k=7, max_tokens=240, seed=3)
    decode(target, draft, cfg, [8, 9], recorder=recorder, cycle_sink=live_cycles)
    live_path = tmp_path / "live.trace"
    write_trace(recorder.to_trace("live"), live_path)
    replayed = replay_cycles(read_trace(live_path), VerificationPolicy.margin_aware(0.9), 7)
    assert replayed == live_cycles
    report(8, "10,000-record round trip, 0 diffs; live == replay decisions")


def test_criterion_9_decoupling_witness(tmp_path):
    """Default-model 10,000-step trace: p2/p1 spans > 10x among r > 0.9 records."""
    fixture_spec = Path(__file__).resolve().parent.parent / "scripts" / "decoupling_spec.json"
    code = main(["record", "--spec", str(fixture_spec),
                 "--out", str(tmp_path / "decoupling.trace")])
    assert code == 0
    trace = read_trace(tmp_path / "decoupling.trace")
    assert len(trace.records) >= 10_000
    records = trace.records[:10_000]
    prob_ratios = []
    for rec in records:
        (_, z1), (_, z2) = rec.top_k[0], rec.top_k[1]
        r = logit_ratio(z1, z2)
        if r is not None and r > 0.9:
            prob_ratios.append(math.exp((z2 - z1) / rec.temperature))
    assert len(prob_ratios) > 100  # the relaxation zone is populated
    span = max(prob_ratios) / min(prob_ratios)
    assert span > 10.0

    # the reported zone fraction equals this counting oracle exactly
    report_10k = analyze_trace(TraceFile(trace.header, list(records)), theta=0.9)
    assert report_10k.relaxation_fraction == len(prob_ratios) / 10_000
    report(9, f"decoupling witness: {len(prob_ratios)} zone records, p2/p1 span {span:.1f}x")


def test_criterion_9_decoupling_witness_off_the_orbit(tmp_path):
    """The witness on a sampled-draft trace of the fixture model, which does
    not fall into greedy drafting's periodic orbit: p2/p1 still spans > 10x
    among r > 0.9 records."""
    fixture_spec = Path(__file__).resolve().parent.parent / "scripts" / "decoupling_spec.json"
    doc = json.loads(fixture_spec.read_text())
    doc.update(draft_mode="sample", max_tokens=2000)
    spec = tmp_path / "sampled.json"
    spec.write_text(json.dumps(doc))
    assert main(["record", "--spec", str(spec), "--out", str(tmp_path / "sampled.trace")]) == 0
    columns = read_trace(tmp_path / "sampled.trace").columns
    v1, v2, z1, z2 = columns.top_two()
    distinct = len(set(zip(v1.tolist(), v2.tolist(), z1.tolist(), z2.tolist())))
    assert distinct > len(columns) // 4  # the greedy fixture has 80 of 10,520
    with np.errstate(divide="ignore", invalid="ignore"):
        zone = (z1 > 0) & (z2 / z1 > 0.9)
    prob_ratios = np.exp((z2 - z1)[zone] / columns.temp[zone])
    assert zone.sum() > 100
    span = prob_ratios.max() / prob_ratios.min()
    assert span > 10.0
    report(9, f"off-orbit witness: {zone.sum()} zone records, {distinct} distinct top-2 rows of "
              f"{len(columns)}, p2/p1 span {span:.1f}x")
