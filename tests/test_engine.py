import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify.engine import (
    CostModel,
    DecodeConfig,
    agreement_rate,
    decode,
    greedy_decode,
    simulated_speedup,
)
from specverify.models import (
    AdversarialDraftModel,
    PerturbedDraftConfig,
    PerturbedDraftModel,
    draft_chain,
)
from specverify.verify import VerificationPolicy

from conftest import make_pair

MARGIN_09 = VerificationPolicy.margin_aware(0.9)
STRICT = VerificationPolicy.strict()


class TestDecodeBasics:
    def test_deterministic(self):
        target, draft = make_pair()
        cfg = DecodeConfig(policy=MARGIN_09, k=7, max_tokens=120, seed=3)
        a = decode(target, draft, cfg, [1, 2])
        b = decode(target, draft, cfg, [1, 2])
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_prompt_validation(self):
        target, draft = make_pair()
        cfg = DecodeConfig(policy=STRICT)
        with pytest.raises(ValueError):
            decode(target, draft, cfg, [])
        with pytest.raises(ValueError):
            decode(target, draft, cfg, [99])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(policy=STRICT, k=0)
        with pytest.raises(ValueError):
            DecodeConfig(policy=STRICT, max_tokens=0)
        with pytest.raises(ValueError):
            DecodeConfig(policy=STRICT, temperature=0.0)
        with pytest.raises(ValueError):
            DecodeConfig(policy=STRICT, mode="dag")

    def test_tree_size_checked_up_front_in_tree_mode_only(self):
        with pytest.raises(ValueError, match="field 'tree_top_k'.*1000\\^7"):
            DecodeConfig(policy=STRICT, mode="tree", tree_top_k=1000)
        with pytest.raises(ValueError, match="field 'tree_top_k'"):
            DecodeConfig(policy=STRICT, mode="tree", tree_top_k=2, k=2**63 - 1)
        with pytest.raises(ValueError, match="field 'tree_top_k'"):
            DecodeConfig(policy=STRICT, mode="tree", tree_top_k=1, k=2**63 - 1)
        DecodeConfig(policy=STRICT, mode="tree", tree_top_k=1, k=200_000)
        DecodeConfig(policy=STRICT, mode="tree", tree_top_k=2, k=17)
        DecodeConfig(policy=STRICT, tree_top_k=1000)

    def test_cycle_accounting(self):
        target, draft = make_pair()
        cfg = DecodeConfig(policy=MARGIN_09, k=7, max_tokens=200)
        out, m = decode(target, draft, cfg, [0, 1])
        assert m.total_committed == len(out)
        assert m.target_passes == m.cycles
        assert m.draft_steps == 7 * m.cycles
        # every committed token is an accepted draft, a correction, or a bonus
        assert m.total_committed == m.exact_count + m.relaxed_count + m.rejected_count + m.bonus_count
        assert m.tau == m.total_committed / m.cycles
        assert 1.0 <= m.tau <= 8.0

    def test_metrics_are_frozen(self):
        target, draft = make_pair()
        _, m = decode(target, draft, DecodeConfig(policy=STRICT, max_tokens=16), [0, 1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.tau = 0.0

    def test_strict_never_relaxes(self):
        target, draft = make_pair()
        cfg = DecodeConfig(policy=STRICT, k=7, max_tokens=150)
        _, m = decode(target, draft, cfg, [0, 1])
        assert m.relaxed_count == 0

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=9),
        st.sampled_from(["strict", "margin"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_tau_bounds(self, seed, k, kind):
        target, draft = make_pair(target_seed=seed, noise_seed=seed + 1)
        policy = STRICT if kind == "strict" else MARGIN_09
        cfg = DecodeConfig(policy=policy, k=k, max_tokens=40, seed=seed)
        _, m = decode(target, draft, cfg, [seed % 64])
        assert 1.0 <= m.tau <= k + 1.0

    def test_cycles_are_atomic(self):
        # committed can exceed max_tokens by at most one cycle's worth
        target, draft = make_pair()
        cfg = DecodeConfig(policy=STRICT, k=7, max_tokens=10)
        out, m = decode(target, draft, cfg, [5, 6])
        assert 10 <= len(out) <= 10 + 7
        assert m.total_committed == len(out)


class TestTauExtremes:
    def test_aligned_drafter_hits_ceiling(self):
        target, _ = make_pair()
        aligned = PerturbedDraftModel(target, PerturbedDraftConfig(noise_seed=1, noise_scale=0.0))
        cfg = DecodeConfig(policy=STRICT, k=7, max_tokens=80)
        out, m = decode(target, aligned, cfg, [1, 2])
        assert m.tau == 8.0
        assert m.bonus_count == m.cycles
        assert len(out) == 80

    def test_adversarial_drafter_hits_floor(self):
        target, _ = make_pair()
        adv = AdversarialDraftModel(target)
        cfg = DecodeConfig(policy=MARGIN_09, k=7, max_tokens=40)
        _, m = decode(target, adv, cfg, [1, 2])
        assert m.tau == 1.0
        assert m.exact_count == 0 and m.relaxed_count == 0


class TestStrictIdentity:
    def test_strict_output_equals_vanilla_greedy(self):
        for seed in range(10):
            target, draft = make_pair(target_seed=100 + seed, noise_seed=200 + seed)
            cfg = DecodeConfig(policy=STRICT, k=7, max_tokens=60, seed=seed)
            out, _ = decode(target, draft, cfg, [seed % 64, (seed * 3) % 64])
            vanilla = greedy_decode(target, [seed % 64, (seed * 3) % 64], len(out))
            assert out == vanilla

    def test_strict_identity_with_sampled_drafts(self):
        # correction/exact tokens are always the target argmax, independent of
        # how drafts were proposed
        target, draft = make_pair()
        cfg = DecodeConfig(
            policy=STRICT, k=5, max_tokens=50, seed=11, draft_mode="sample", temperature=1.5
        )
        out, _ = decode(target, draft, cfg, [7, 8])
        assert out == greedy_decode(target, [7, 8], len(out))

    def test_margin_tau_dominates_strict(self):
        target, draft = make_pair()
        prompt = [3, 4]
        strict_cfg = DecodeConfig(policy=STRICT, k=7, max_tokens=400, seed=0)
        margin_cfg = DecodeConfig(policy=MARGIN_09, k=7, max_tokens=400, seed=0)
        _, m_strict = decode(target, draft, strict_cfg, prompt)
        _, m_margin = decode(target, draft, margin_cfg, prompt)
        assert m_margin.tau >= m_strict.tau


class TestSimulatedSpeedup:
    def test_free_drafter_limit(self):
        assert simulated_speedup(80, 10, CostModel(c_target=1.0, c_draft=0.0), 7) == 8.0

    def test_equal_costs_cancel(self):
        # tau = 8, K = 7, c_draft = c_target: 8 / (1 + 7) = 1
        assert simulated_speedup(80, 10, CostModel(c_target=1.0, c_draft=1.0), 7) == 1.0

    def test_monotone_in_tau(self):
        cost = CostModel()
        values = [simulated_speedup(c, 10, cost, 7) for c in range(10, 90, 5)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_cycles_undefined(self):
        with pytest.raises(ValueError):
            simulated_speedup(0, 0, CostModel(), 7)

    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            CostModel(c_target=0.0)
        with pytest.raises(ValueError):
            CostModel(c_draft=-0.1)

    def test_metrics_field_matches_formula(self):
        target, draft = make_pair()
        cost = CostModel(c_target=1.0, c_draft=0.05)
        cfg = DecodeConfig(policy=MARGIN_09, k=7, max_tokens=100)
        _, m = decode(target, draft, cfg, [1, 2], cost=cost)
        assert m.simulated_speedup == m.tau / (1.0 + 7 * 0.05)


class TestAgreementRate:
    def test_identity(self):
        assert agreement_rate([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert agreement_rate([1, 2, 3], [4, 5, 6]) == 0.0

    def test_shorter_length_rule(self):
        assert agreement_rate([1, 2, 3, 4], [1, 2]) == 1.0
        assert agreement_rate([1, 9], [1, 2, 3, 4]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            agreement_rate([], [1])

    def test_theta_one_agrees_with_strict(self):
        target, draft = make_pair()
        prompt = [9, 10]
        out1, _ = decode(target, draft, DecodeConfig(policy=VerificationPolicy.margin_aware(1.0), max_tokens=80, seed=4), prompt)
        out2, _ = decode(target, draft, DecodeConfig(policy=STRICT, max_tokens=80, seed=4), prompt)
        assert agreement_rate(out1, out2) == 1.0


class TestStopToken:
    def test_stops_at_stop_token(self):
        target, draft = make_pair()
        # pick a token the strict decode actually emits
        probe, _ = decode(target, draft, DecodeConfig(policy=STRICT, max_tokens=60), [1, 2])
        stop = probe[20]
        cfg = DecodeConfig(policy=STRICT, max_tokens=60, stop_token=stop)
        out, m = decode(target, draft, cfg, [1, 2])
        assert out[-1] == stop
        assert stop not in out[:-1]
        assert m.total_committed == len(out) <= len(probe)


class TestTreeModeDecode:
    def test_runs_and_respects_bounds(self):
        target, draft = make_pair()
        cfg = DecodeConfig(policy=MARGIN_09, k=4, max_tokens=40, mode="tree", tree_top_k=2)
        out, m = decode(target, draft, cfg, [1, 2])
        assert 1.0 <= m.tau <= 5.0
        assert m.total_committed == len(out) >= 40
        assert m.draft_steps == m.cycles * (2 + 4 + 8 + 16)

    def test_deterministic(self):
        target, draft = make_pair()
        cfg = DecodeConfig(policy=MARGIN_09, k=4, max_tokens=30, mode="tree", tree_top_k=3)
        assert decode(target, draft, cfg, [1, 2]) == decode(target, draft, cfg, [1, 2])

    def test_recording_unsupported(self):
        target, draft = make_pair()
        cfg = DecodeConfig(policy=MARGIN_09, k=3, max_tokens=20, mode="tree")
        with pytest.raises(ValueError):
            decode(target, draft, cfg, [1, 2], recorder=lambda *a: None)

    def test_draft_steps_count_at_most_vocab_size_children(self):
        # a node drafts at most vocab_size (64) children, whatever tree_top_k asks for
        target, draft = make_pair()
        runs = [
            decode(target, draft, DecodeConfig(policy=MARGIN_09, k=2, max_tokens=20, mode="tree",
                                               tree_top_k=width), [1, 2])
            for width in (64, 65)
        ]
        assert runs[0] == runs[1]
        assert runs[1][1].draft_steps == runs[1][1].cycles * (64 + 64**2)

    def test_branching_one_equals_chain_mode(self):
        target, draft = make_pair()
        tree_cfg = DecodeConfig(policy=MARGIN_09, k=5, max_tokens=40, mode="tree", tree_top_k=1)
        chain_cfg = DecodeConfig(policy=MARGIN_09, k=5, max_tokens=40, mode="chain")
        out_tree, m_tree = decode(target, draft, tree_cfg, [4, 4])
        out_chain, m_chain = decode(target, draft, chain_cfg, [4, 4])
        assert out_tree == out_chain
        assert m_tree.tau == m_chain.tau


class CountingModel:
    """A ScoringModel that records the length of every context it scores."""

    def __init__(self, inner):
        self.inner = inner
        self.lengths = []

    @property
    def vocab_size(self):
        return self.inner.vocab_size

    @property
    def order(self):
        return self.inner.order

    def score(self, context):
        self.lengths.append(len(context))
        return self.inner.score(context)


LONG_PROMPT = [i % 64 for i in range(600)]


class TestLinearity:
    """decode and greedy_decode must not hand the models a context that grows
    with the decode: every scoring sees at most order + k tokens."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"draft_mode": "greedy"},
            {"draft_mode": "sample", "temperature": 0.7},
            {"mode": "tree", "tree_top_k": 2, "k": 3},
        ],
    )
    def test_decode_scores_a_bounded_window(self, fields):
        inner_target, inner_draft = make_pair()
        target, draft = CountingModel(inner_target), CountingModel(inner_draft)
        cfg = DecodeConfig(policy=MARGIN_09, **{"k": 5, "max_tokens": 300, **fields})
        out, _ = decode(target, draft, cfg, LONG_PROMPT)
        assert out == decode(inner_target, inner_draft, cfg, LONG_PROMPT)[0]
        assert target.lengths and draft.lengths
        assert max(target.lengths + draft.lengths) <= target.order + cfg.k

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_draft_chain_scores_the_order_window_after_the_first_call(self, mode):
        _, inner = make_pair()
        counting = CountingModel(inner)
        drafted = draft_chain(counting, LONG_PROMPT, 400, 0.7, mode, 5)
        assert drafted == draft_chain(inner, LONG_PROMPT, 400, 0.7, mode, 5)
        assert len(counting.lengths) == 400
        assert counting.lengths[0] == len(LONG_PROMPT)
        assert max(counting.lengths[1:]) <= inner.order

    def test_stop_token_exit_scores_a_bounded_window(self):
        inner_target, inner_draft = make_pair()
        probe, _ = decode(inner_target, inner_draft, DecodeConfig(policy=STRICT, max_tokens=300), LONG_PROMPT)
        cfg = DecodeConfig(policy=STRICT, max_tokens=300, stop_token=probe[150])
        target, draft = CountingModel(inner_target), CountingModel(inner_draft)
        out, _ = decode(target, draft, cfg, LONG_PROMPT)
        assert out[-1] == cfg.stop_token and len(out) <= 151
        assert max(target.lengths + draft.lengths) <= target.order + cfg.k

    def test_greedy_decode_scores_the_order_window(self, target):
        counting = CountingModel(target)
        assert greedy_decode(counting, LONG_PROMPT, 300) == greedy_decode(target, LONG_PROMPT, 300)
        assert len(counting.lengths) == 300
        assert max(counting.lengths) <= target.order

    def test_token_outside_the_window_is_still_rejected(self, target, draft):
        # order 2: scoring never sees the 99, so only the entry check can catch it
        with pytest.raises(ValueError, match="token 99"):
            decode(target, draft, DecodeConfig(policy=STRICT), [99, 1, 2])
        with pytest.raises(ValueError, match="token 99"):
            greedy_decode(target, [99, 1, 2], 5)
        with pytest.raises(ValueError, match="64"):
            target.score([64])


class TestGreedyDecode:
    def test_deterministic_and_validated(self, target):
        assert greedy_decode(target, [1, 2], 10) == greedy_decode(target, [1, 2], 10)
        with pytest.raises(ValueError):
            greedy_decode(target, [], 10)
        with pytest.raises(ValueError):
            greedy_decode(target, [1], 0)
