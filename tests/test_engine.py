import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trace_oracle
from trace_oracle import ranked
from specverify import engine, models, trace, verify
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
    SyntheticTargetConfig,
    SyntheticTargetModel,
    draft_chain,
    window_reader,
)
from specverify.trace import TraceRecord, TraceRecorder
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
        for seed in (-1, 2**63):
            with pytest.raises(ValueError, match=rf"^field 'seed': {seed} not in \[0, 2\^63\)$"):
                DecodeConfig(policy=STRICT, seed=seed)

    def test_models_and_stop_token_share_one_vocabulary(self):
        target, draft = make_pair()
        other = SyntheticTargetModel(SyntheticTargetConfig(seed=1, vocab_size=32))
        with pytest.raises(ValueError, match="^target and draft must share a vocabulary$"):
            decode(target, other, DecodeConfig(policy=STRICT), [1, 2])
        with pytest.raises(ValueError, match="^stop_token 64 out of vocabulary range$"):
            decode(target, draft, DecodeConfig(policy=STRICT, stop_token=64), [1, 2])

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
        assert simulated_speedup(80, 10, CostModel(c_draft=0.0), 7) == 8.0

    def test_equal_costs_cancel(self):
        # tau = 8, K = 7, a draft step costs a target pass: 8 / (1 + 7) = 1
        assert simulated_speedup(80, 10, CostModel(c_draft=1.0), 7) == 1.0

    def test_monotone_in_tau(self):
        cost = CostModel()
        values = [simulated_speedup(c, 10, cost, 7) for c in range(10, 90, 5)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_cycles_undefined(self):
        with pytest.raises(ValueError):
            simulated_speedup(0, 0, CostModel(), 7)

    def test_cost_model_validation(self):
        with pytest.raises(ValueError, match=r"^field 'c_draft': -0\.1 must be finite and >= 0$"):
            CostModel(c_draft=-0.1)
        with pytest.raises(ValueError, match=r"^field 'c_draft': nan must be finite and >= 0$"):
            CostModel(c_draft=float("nan"))

    def test_metrics_field_matches_formula(self):
        target, draft = make_pair()
        cost = CostModel(c_draft=0.05)
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
            decode(target, draft, cfg, [1, 2], recorder=TraceRecorder(64, 1.0))

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


class RoundedModel:
    """A ScoringModel with only `score`: its inner model's logits rounded to
    integers, so that tokens tie."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def vocab_size(self):
        return self.inner.vocab_size

    @property
    def order(self):
        return self.inner.order

    def score(self, context):
        return np.round(self.inner.score(context))


class ThirdFirstModel:
    """A ScoringModel with only `score` that ranks the target's third token
    first and its top token last, so that in a narrow tree the target's v2 is
    a child but not the first, and its v1 no child at all."""

    def __init__(self, target):
        self.target = target

    @property
    def vocab_size(self):
        return self.target.vocab_size

    @property
    def order(self):
        return self.target.order

    def score(self, context):
        z = np.array(self.target.score(context))
        ranked = np.lexsort((np.arange(z.size), -z))
        z[ranked[0]], z[ranked[2]] = z.min() - 1, z.max() + 1
        return z


class TestTreeWalk:
    """Tree mode walks only the path verification follows; the oracle's decode
    builds the full draft tree every cycle and walks it with verify_tree."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_full_tree(self, data):
        vocab = data.draw(st.integers(3, 8), label="vocab")
        order = data.draw(st.integers(1, 3), label="order")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        pair = data.draw(st.sampled_from(["perturbed", "rounded", "third first"]), label="pair")
        if pair == "perturbed":
            target = SyntheticTargetModel(SyntheticTargetConfig(seed, vocab, order))
            noise = data.draw(st.sampled_from([0.0, 0.5, 3.0]), label="noise_scale")
            draft = PerturbedDraftModel(target, PerturbedDraftConfig(seed + 2, noise))
        else:
            # spread 1: integer logits a unit or so apart, so ties are common
            target = RoundedModel(SyntheticTargetModel(
                SyntheticTargetConfig(seed, vocab, order, logit_spread=1.0)))
            draft_order = data.draw(st.integers(1, 4), label="draft order")
            draft = RoundedModel(SyntheticTargetModel(
                SyntheticTargetConfig(seed + 1, vocab, draft_order, logit_spread=1.0)))
            if pair == "third first":
                draft = ThirdFirstModel(target)
        width = data.draw(st.sampled_from([1, 2, 3, vocab, vocab + 1]), label="tree_top_k")
        # depth 1-9, at most 2^11 leaves, so that the oracle's full trees stay small
        leaves = min(width, vocab)
        k = data.draw(st.integers(1, max(d for d in range(1, 10) if leaves**d <= 2**11)), label="k")
        kind = data.draw(st.sampled_from(["strict", "margin"]), label="policy")
        theta = data.draw(st.sampled_from([0.5, 0.9, 1.0]), label="theta")
        config = DecodeConfig(
            VerificationPolicy.from_name(kind, theta), k=k, mode="tree", tree_top_k=width,
            max_tokens=data.draw(st.integers(1, 30), label="max_tokens"),
            stop_token=data.draw(st.none() | st.integers(0, vocab - 1), label="stop_token"))
        prompt = data.draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=order + 2))
        # the cycle memo off, so that every cycle is walked, or the default one
        tokens = data.draw(st.sampled_from([0, engine.CYCLE_MEMO_TOKENS]), label="memo tokens")

        def run(decode):
            sink = []
            out, metrics = decode(target, draft, config, prompt, cycle_sink=sink)
            return out, metrics, sink

        with mock.patch.object(engine, "CYCLE_MEMO_TOKENS", tokens):
            got = run(decode)
        assert got == run(trace_oracle.decode)

    def test_scores_the_draft_once_per_position_reached(self):
        """A cycle ranks the draft at the windows of the path it verifies, at most
        k of them, where the full tree ranks it at each of its 127 internal nodes;
        the bill still counts the full tree's 254 draft steps."""
        target, inner = make_pair()
        draft = CountingModel(inner)
        cfg = DecodeConfig(policy=MARGIN_09, k=7, max_tokens=300, mode="tree", tree_top_k=2)
        sink = []
        with mock.patch.object(engine, "CYCLE_MEMO_TOKENS", 0):  # every cycle decided
            _, m = decode(target, draft, cfg, [1, 2], cycle_sink=sink)
        assert len(draft.lengths) == sum(len(result.decisions) for result in sink)
        assert len(draft.lengths) <= cfg.k * m.cycles
        assert m.draft_steps == m.cycles * 254
        draft.lengths.clear()
        trace_oracle.build_draft_tree(draft, [1, 2], 2, 7)
        assert len(draft.lengths) == 127


@pytest.mark.parametrize("mode", ["chain", "tree"])
@pytest.mark.parametrize("size", [7, 11])
def test_a_score_of_the_wrong_length_is_refused(mode, size):
    """A score-only draft scoring 11 tokens of a vocabulary of 8 would draft
    token 9; scoring 7, it could never draft token 7."""
    target = SyntheticTargetModel(SyntheticTargetConfig(seed=1, vocab_size=8))
    draft = RoundedModel(target)
    draft.score = lambda context: np.arange(size, dtype=float)
    cfg = DecodeConfig(policy=MARGIN_09, k=3, max_tokens=20, mode=mode)
    with pytest.raises(ValueError, match=rf"score returned shape \({size},\), not \(8,\)"):
        decode(target, draft, cfg, [1, 2])


def score_only(name, logits, order=2, vocab_size=8):
    """A ScoringModel of class `name` with only `score`, which returns `logits` for any context."""
    return type(name, (), {"vocab_size": vocab_size, "order": order,
                           "score": lambda self, context: np.array(logits, dtype=float)})()


ALL_NAN, ONE_INF = [np.nan] * 8, [0.5] * 7 + [np.inf]


@pytest.mark.parametrize("mode, logits", [("chain", ALL_NAN), ("chain", ONE_INF), ("tree", ALL_NAN),
                                          ("tree", ONE_INF)])
def test_a_non_finite_score_is_refused_naming_the_model(mode, logits):
    """Greedy drafting (argmax) and tree ranking read a score-only draft's
    vector unchecked, so its adapter checks it."""
    target = SyntheticTargetModel(SyntheticTargetConfig(seed=1, vocab_size=8))
    cfg = DecodeConfig(policy=MARGIN_09, k=3, max_tokens=10, mode=mode)
    with pytest.raises(ValueError, match=r"^NaNDraft\.score returned non-finite logits$"):
        decode(target, score_only("NaNDraft", logits), cfg, [1, 2])


def test_greedy_decode_refuses_a_non_finite_target():
    with pytest.raises(ValueError, match=r"^NaNTarget\.score returned non-finite logits$"):
        greedy_decode(score_only("NaNTarget", ALL_NAN), [1, 2], 5)


@pytest.mark.parametrize("order", [-1, 0, 2.5])
def test_a_draft_of_a_bad_order_is_refused(order):
    target = SyntheticTargetModel(SyntheticTargetConfig(seed=1, vocab_size=8))
    cfg = DecodeConfig(policy=MARGIN_09, k=3, max_tokens=10)
    draft = score_only("OddDraft", np.arange(8.0), order=order)
    with pytest.raises(ValueError, match=rf"^OddDraft\.order {order} is not an int in \[1, 1024\]$"):
        decode(target, draft, cfg, [1, 2])


@pytest.mark.parametrize("field, value", [("order", 1025), ("order", True), ("order", np.float64(2)),
                                          ("vocab_size", 1), ("vocab_size", 8.0), ("vocab_size", None)])
def test_the_score_only_adapter_refuses_a_bad_order_or_vocabulary(field, value):
    """A huge order would never return from computing the window-id modulus."""
    model = score_only("OddModel", np.arange(8.0), **{field: value})
    with pytest.raises(ValueError, match=rf"^OddModel\.{field} {re.escape(repr(value))} is not an int in "):
        window_reader(model)
    window_reader(score_only("OddModel", np.arange(8.0), order=np.int64(1024)))  # numpy ints are ints


@pytest.mark.parametrize("run", ["greedy_decode", "decode"])
def test_a_string_vocabulary_is_refused_before_the_prompt_is_checked(run):
    """The prompt is checked against the vocabulary the adapter checked."""
    target = score_only("OddTarget", np.arange(8.0), vocab_size="8")
    with pytest.raises(ValueError, match=r"^OddTarget\.vocab_size '8' is not an int in "):
        if run == "greedy_decode":
            greedy_decode(target, [1, 2], 5)
        else:
            decode(target, score_only("Draft", np.arange(8.0)), DecodeConfig(policy=MARGIN_09, k=3), [1, 2])


@pytest.mark.parametrize("token", [1.5, 2.0, "1", None])
@pytest.mark.parametrize("run", ["greedy_decode", "decode"])
def test_a_prompt_token_that_is_not_an_integer_is_named(run, token):
    target, draft = make_pair(vocab_size=8)
    with pytest.raises(ValueError, match=rf"^prompt token {re.escape(repr(token))} is not an integer$"):
        if run == "greedy_decode":
            greedy_decode(target, [1, token], 5)
        else:
            decode(target, draft, DecodeConfig(policy=MARGIN_09, k=3), [1, token])
    assert greedy_decode(target, [1, np.int64(2)], 3) == greedy_decode(target, [1, 2], 3)


@pytest.mark.parametrize("draft_mode", ["greedy", "sample"])
def test_a_score_only_draft_has_one_adapter_per_decode(draft_mode):
    """Every chain cycle drafts through the reader decode built, so the
    adapter's checks run once a decode, not once a cycle."""
    target = SyntheticTargetModel(SyntheticTargetConfig(seed=1, vocab_size=8))
    draft = type("ContextDraft", (), {"vocab_size": 8, "order": 2, "score": lambda self, context:
                                      np.cos(np.arange(8.0) * (1 + sum(context[-2:])))})()
    cfg = DecodeConfig(policy=MARGIN_09, k=3, max_tokens=200, draft_mode=draft_mode, seed=5)
    with mock.patch.object(models._ScoreOnly, "_init_ids", autospec=True,
                           side_effect=models._ScoreOnly._init_ids) as built:
        _, metrics = decode(target, draft, cfg, [1, 2])
    assert metrics.cycles > 10 and built.call_count == 1


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


class TestCycleMemo:
    """decode decides each distinct greedy-chain or tree cycle once, by its
    context tail; the oracle's decode decides every cycle anew."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_memo_free_decode(self, data):
        vocab = data.draw(st.sampled_from([2, 3, 5, 8, 64]), label="vocab")
        order = data.draw(st.integers(1, 3), label="order")
        # at spread 1e-300 every logit is the offset: all tokens tie
        spread = data.draw(st.sampled_from([2.0, 1e-300]), label="spread")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        target = SyntheticTargetModel(SyntheticTargetConfig(seed, vocab, order, logit_spread=spread))
        if data.draw(st.booleans(), label="score-only draft"):
            draft_order = data.draw(st.integers(1, 4), label="draft order")
            draft = CountingModel(SyntheticTargetModel(SyntheticTargetConfig(seed + 1, vocab, draft_order)))
        else:
            noise = data.draw(st.sampled_from([0.0, 0.5, 3.0]), label="noise_scale")
            draft = PerturbedDraftModel(target, PerturbedDraftConfig(seed + 2, noise))
        mode = data.draw(st.sampled_from(["greedy", "sample", "tree"]), label="mode")
        # tree_top_k up to above the vocabulary, below the leaf limit
        width = data.draw(st.sampled_from([1, 2, 3, vocab + 1]), label="tree_top_k")
        fields = {"draft_mode": mode} if mode != "tree" else {"mode": "tree", "tree_top_k": width}
        k = data.draw(st.integers(1, 16 if mode != "tree" else 3 if width < 10 else 2), label="k")
        kind = data.draw(st.sampled_from(["strict", "margin"]), label="policy")
        theta = data.draw(st.sampled_from([0.5, 0.9, 1.0]), label="theta")
        stop = data.draw(st.none() | st.integers(0, vocab - 1), label="stop_token")
        config = DecodeConfig(
            VerificationPolicy.from_name(kind, theta), k=k, seed=seed,
            max_tokens=data.draw(st.integers(1, 40 if mode == "tree" else 80)),
            temperature=data.draw(st.sampled_from([0.3, 1.0])), stop_token=stop, **fields)
        prompt = data.draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=order + 2))
        recording = mode != "tree" and data.draw(st.booleans(), label="recorder")
        # a memo of 0 to 3 cycles at most, or the default one
        window = max(order, draft.order)
        tokens = data.draw(st.sampled_from([0, 1, 2, 3]).map(lambda n: n * (k + 2) * window)
                           | st.just(engine.CYCLE_MEMO_TOKENS), label="memo tokens")
        # a recorder's block of unranked vectors: 1 to 3 vectors, or the default
        block = data.draw(st.sampled_from([1, 2, 3]).map(lambda n: n * vocab)
                          | st.just(trace._BLOCK_FLOATS), label="block floats")

        def run(decode, recorder):
            sink = []
            out = decode(target, draft, config, prompt, recorder=recorder if recording else None,
                         cycle_sink=sink)
            return out, sink

        with mock.patch.object(trace, "_BLOCK_FLOATS", block):
            cycles = trace_oracle.CycleRecorder(vocab, config.temperature)
        with mock.patch.object(engine, "CYCLE_MEMO_TOKENS", tokens):
            got = run(decode, cycles)
        records = []
        assert got == run(trace_oracle.decode, lambda step, z, chosen, ctx: records.append(
            (step, z.tobytes(), chosen, ctx)))
        if recording:
            # each record's step, vector, draft and context hash, and the trace of their top-k lists
            assert cycles.records == records
            top_k = min(trace.DEFAULT_TOP_K, vocab)
            expected = [TraceRecord(step, ranked(np.frombuffer(z), top_k), config.temperature, chosen, ctx)
                        for step, z, chosen, ctx in records]
            assert cycles.recorder.to_trace().records == expected

    @pytest.mark.parametrize("draft_mode, decided", [("greedy", "fewer"), ("sample", "all")])
    def test_only_deterministic_cycles_are_decided_once(self, draft_mode, decided, monkeypatch):
        calls = []
        original = verify.decide_chain
        monkeypatch.setattr(verify, "decide_chain",
                            lambda *args: calls.append(1) or original(*args))
        target, draft = make_pair()
        cfg = DecodeConfig(policy=MARGIN_09, max_tokens=2000, draft_mode=draft_mode, temperature=0.4)
        _, m = decode(target, draft, cfg, [1, 2])
        assert len(calls) < m.cycles / 10 if decided == "fewer" else len(calls) == m.cycles

    @pytest.mark.parametrize("draft_mode, handed", [("greedy", "fewer"), ("sample", "all")])
    def test_the_recorder_is_called_once_a_cycle(self, draft_mode, handed):
        """A recorded cycle is one recorder call, and only a decided cycle
        hands its vectors to `lists`: a replayed one reuses its list ids."""
        counted = {name: mock.patch.object(TraceRecorder, name, autospec=True,
                                           side_effect=getattr(TraceRecorder, name))
                   for name in ("lists", "__call__")}
        target, draft = make_pair()
        cfg = DecodeConfig(policy=MARGIN_09, max_tokens=2000, draft_mode=draft_mode, temperature=0.4)
        with counted["lists"] as lists, counted["__call__"] as call:
            _, m = decode(target, draft, cfg, [1, 2], recorder=TraceRecorder(64, cfg.temperature))
        assert call.call_count == m.cycles
        assert lists.call_count < m.cycles / 10 if handed == "fewer" else lists.call_count == m.cycles


class TestEarlyStop:
    """A chain cycle drafts no position past its first rejection, unless a
    recorder needs every draft for the trace."""

    @pytest.mark.parametrize("recording", [False, True])
    def test_a_cycle_rejected_at_position_1_scores_the_draft_once(self, recording):
        target, _ = make_pair()
        draft = CountingModel(AdversarialDraftModel(target))
        # sampled, so no cycle is memoised; at temperature 0.01 every draw is
        # the adversary's third-ranked token
        cfg = DecodeConfig(policy=MARGIN_09, k=7, max_tokens=200, draft_mode="sample",
                           temperature=0.01)
        recorder = TraceRecorder(64, cfg.temperature) if recording else None
        _, m = decode(target, draft, cfg, [1, 2], recorder=recorder)
        assert m.rejected_count == m.cycles == 200
        assert len(draft.lengths) == m.cycles * (cfg.k if recording else 1)
        assert m.draft_steps == m.cycles * cfg.k
