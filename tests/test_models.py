from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify import experiment, models
from specverify.engine import DecodeConfig, decode, greedy_decode
from specverify.experiment import run_point, spec_from_dict, sweep_rows
from specverify.logits import softmax, top_two
from specverify.models import (
    MAX_TREE_LEAVES,
    AdversarialDraftModel,
    PerturbedDraftConfig,
    PerturbedDraftModel,
    SyntheticTargetConfig,
    SyntheticTargetModel,
    build_draft_tree,
    check_tree_size,
    draft_chain,
)
from specverify.verify import TreeNode, VerificationPolicy

from conftest import make_pair, random_contexts


class TestSyntheticTarget:
    def test_deterministic(self, target):
        a = target.score([3, 9, 40])
        b = target.score([3, 9, 40])
        assert np.array_equal(a, b)

    def test_output_shape_and_finiteness(self, target):
        z = target.score([0])
        assert z.shape == (64,)
        assert np.all(np.isfinite(z))

    def test_only_last_m_tokens_matter(self, target):
        # order 2: anything before the final window is ignored
        assert np.array_equal(target.score([1, 2, 3, 4]), target.score([60, 61, 3, 4]))
        assert not np.array_equal(target.score([1, 2, 3, 4]), target.score([1, 2, 3, 5]))

    def test_out_of_vocab_rejected(self, target):
        with pytest.raises(ValueError):
            target.score([64])
        with pytest.raises(ValueError):
            target.score([-1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticTargetConfig(seed=1, vocab_size=1)
        with pytest.raises(ValueError):
            SyntheticTargetConfig(seed=1, order=0)
        with pytest.raises(ValueError):
            SyntheticTargetConfig(seed=1, logit_spread=0.0)

    def test_top1_positive_over_1000_contexts(self, target):
        # exhaustive scan: default config keeps the top-1 logit positive
        for ctx in random_contexts(17, 1000):
            assert target.score(ctx).max() > 0.0

    def test_different_seeds_differ(self):
        a = SyntheticTargetModel(SyntheticTargetConfig(seed=1)).score([5, 6])
        b = SyntheticTargetModel(SyntheticTargetConfig(seed=2)).score([5, 6])
        assert not np.array_equal(a, b)


class TestPerturbedDraft:
    def test_zero_noise_is_bit_identical(self, target):
        drf = PerturbedDraftModel(target, PerturbedDraftConfig(noise_seed=123, noise_scale=0.0))
        for ctx in random_contexts(3, 50):
            assert np.array_equal(drf.score(ctx), target.score(ctx))

    def test_noise_is_deterministic(self, draft):
        assert np.array_equal(draft.score([8, 8]), draft.score([8, 8]))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            PerturbedDraftConfig(noise_seed=1, noise_scale=-0.1)

    def test_alignment_monotone_in_noise_scale(self):
        contexts = random_contexts(29, 300)
        fractions = []
        for scale in (0.0, 0.25, 5.0):
            tgt, drf = make_pair(noise_scale=scale)
            hits = sum(
                int(np.argmax(drf.score(c))) == int(np.argmax(tgt.score(c)))
                for c in contexts
            )
            fractions.append(hits / len(contexts))
        assert fractions[0] == 1.0
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_huge_noise_matches_random_drafter_rate(self):
        # counting oracle: a context-free drafter proposing uniform tokens
        contexts = random_contexts(31, 1000)
        tgt, drf = make_pair(noise_scale=200.0)
        rng = np.random.default_rng(555)
        draft_hits = oracle_hits = 0
        for c in contexts:
            v1 = int(np.argmax(tgt.score(c)))
            draft_hits += int(np.argmax(drf.score(c))) == v1
            oracle_hits += int(rng.integers(0, 64)) == v1
        n = len(contexts)
        p_a, p_b = draft_hits / n, oracle_hits / n
        pooled = (draft_hits + oracle_hits) / (2 * n)
        se = np.sqrt(2 * pooled * (1 - pooled) / n)
        assert abs(p_a - p_b) <= 3 * se + 1e-9


class TestDraftChain:
    def test_zero_noise_greedy_equals_target_continuation(self, target):
        drf = PerturbedDraftModel(target, PerturbedDraftConfig(noise_seed=1, noise_scale=0.0))
        chain = draft_chain(drf, [10, 20], k=7)
        ctx, expect = [10, 20], []
        for _ in range(7):
            tok = int(np.argmax(target.score(ctx)))
            expect.append(tok)
            ctx.append(tok)
        assert chain == expect

    def test_reproducible(self, draft):
        assert draft_chain(draft, [1, 2], 5) == draft_chain(draft, [1, 2], 5)
        a = draft_chain(draft, [1, 2], 5, temperature=0.8, mode="sample", rng=77)
        b = draft_chain(draft, [1, 2], 5, temperature=0.8, mode="sample", rng=77)
        assert a == b

    def test_sampling_differs_from_greedy_sometimes(self, draft):
        greedy = draft_chain(draft, [1, 2], 12)
        sampled = draft_chain(draft, [1, 2], 12, temperature=2.0, mode="sample", rng=5)
        assert greedy != sampled

    def test_k_validated(self, draft):
        with pytest.raises(ValueError):
            draft_chain(draft, [1, 2], 0)

    def test_mode_validated(self, draft):
        with pytest.raises(ValueError):
            draft_chain(draft, [1, 2], 3, mode="beam")

    @given(
        logits=st.integers(2, 80).flatmap(
            lambda v: st.lists(st.floats(-1e6, 1e6), min_size=v, max_size=v)
        ),
        temperature=st.floats(0.01, 50.0),
        seed=st.integers(0, 2**64 - 1),
        k=st.integers(1, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_sampled_draws_equal_generator_choice(self, logits, temperature, seed, k):
        """The inverse-CDF draw is Generator.choice(p.size, p=p)'s, state and all."""
        z = np.array(logits)
        z.flags.writeable = False

        class Constant:  # scores every context with the same logits
            vocab_size, order = z.size, 1

            def score(self, context):
                return z

        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        chain = draft_chain(Constant(), [0], k, temperature, "sample", ours)
        p = softmax(z, temperature)
        assert chain == [int(reference.choice(p.size, p=p)) for _ in range(k)]
        assert ours.bit_generator.state == reference.bit_generator.state


class TestAdversarialDraft:
    def test_always_proposes_outside_top_two(self, target):
        adv = AdversarialDraftModel(target)
        for ctx in random_contexts(41, 100):
            t = top_two(target.score(ctx))
            proposal = int(np.argmax(adv.score(ctx)))
            assert proposal not in (t.v1, t.v2)

    def test_needs_three_tokens(self):
        small = SyntheticTargetModel(SyntheticTargetConfig(seed=1, vocab_size=2))
        with pytest.raises(ValueError):
            AdversarialDraftModel(small)


class TestDraftTree:
    def test_first_child_path_is_greedy_chain(self, draft):
        roots = build_draft_tree(draft, [4, 5], branching=3, depth=4)
        path = []
        nodes = roots
        while nodes:
            path.append(nodes[0].token)
            nodes = nodes[0].children
        assert path == draft_chain(draft, [4, 5], 4)

    def test_branching_width(self, draft):
        roots = build_draft_tree(draft, [4, 5], branching=3, depth=2)
        assert len(roots) == 3
        assert all(len(n.children) == 3 for n in roots)
        assert all(isinstance(n, TreeNode) for n in roots)

    def test_children_are_distinct_top_tokens(self, target):
        roots = build_draft_tree(target, [9, 9], branching=4, depth=1)
        z = target.score([9, 9])
        expected = list(np.lexsort((np.arange(z.size), -z))[:4])
        assert [n.token for n in roots] == [int(t) for t in expected]

    def test_size_guard(self, draft):
        with pytest.raises(ValueError):
            build_draft_tree(draft, [1], branching=10, depth=7)

    def test_deep_branching_one_tree_is_the_greedy_chain(self, draft):
        # deeper than the recursion limit: the tree is built without recursion
        roots = build_draft_tree(draft, [4, 5], branching=1, depth=3000)
        path = []
        while roots:
            assert len(roots) == 1
            path.append(roots[0].token)
            roots = roots[0].children
        assert path == draft_chain(draft, [4, 5], 3000)

    @pytest.mark.parametrize("branching, depth", [(2, 3), (5, 2), (6, 2), (9, 3)])
    def test_matches_recursive_tree(self, branching, depth):
        # a branching above vocab_size gives every node vocab_size children
        target = SyntheticTargetModel(SyntheticTargetConfig(seed=3, vocab_size=5, order=3))
        draft = PerturbedDraftModel(target, PerturbedDraftConfig(noise_seed=1))

        def expand(ctx, level):
            if level == 0:
                return ()
            z = draft.score(ctx)
            order = np.lexsort((np.arange(z.size), -z))[:branching]
            return tuple(TreeNode(int(t), expand(ctx + [int(t)], level - 1)) for t in order)

        roots = build_draft_tree(draft, [1, 2, 0], branching, depth)
        assert roots == list(expand([1, 2, 0], depth))
        level, width = roots, min(branching, 5)
        for d in range(depth):
            assert len(level) == width ** (d + 1)
            assert all(len(n.children) == (width if d < depth - 1 else 0) for n in level)
            level = [c for n in level for c in n.children]

    def test_branching_one_depth_is_bounded(self):
        check_tree_size(1, MAX_TREE_LEAVES)
        with pytest.raises(ValueError, match="node limit"):
            check_tree_size(1, MAX_TREE_LEAVES + 1)
        with pytest.raises(ValueError, match="field 'tree_top_k'"):
            DecodeConfig(VerificationPolicy.strict(), k=2**62, mode="tree", tree_top_k=1)


class FreshModel:
    """Scores every context with a newly built model, so no memo is ever hit."""

    def __init__(self, build):
        self.build = build
        probe = build()
        self.vocab_size, self.order = probe.vocab_size, probe.order

    def score(self, context):
        return self.build().score(context)


def fresh_pair(target_cfg, draft_cfg):
    def build_draft():
        return PerturbedDraftModel(SyntheticTargetModel(target_cfg), draft_cfg)

    return FreshModel(lambda: SyntheticTargetModel(target_cfg)), FreshModel(build_draft)


MEMO_CONFIGS = [
    (SyntheticTargetConfig(seed=42), PerturbedDraftConfig(noise_seed=7, noise_scale=0.5)),
    (SyntheticTargetConfig(seed=42), PerturbedDraftConfig(noise_seed=7, noise_scale=0.0)),
    (SyntheticTargetConfig(seed=3, vocab_size=5, order=3), PerturbedDraftConfig(noise_seed=1)),
]


class TestLogitMemo:
    @pytest.mark.parametrize("target_cfg, draft_cfg", MEMO_CONFIGS)
    def test_scores_match_fresh_models(self, target_cfg, draft_cfg):
        target = SyntheticTargetModel(target_cfg)
        draft = PerturbedDraftModel(target, draft_cfg)
        fresh_target, fresh_draft = fresh_pair(target_cfg, draft_cfg)
        rng = np.random.default_rng(11)
        vocab = target_cfg.vocab_size
        for _ in range(400):
            ctx = [int(t) for t in rng.integers(0, vocab, rng.integers(1, 8))]
            # the same window behind a different earlier history
            other = [int(rng.integers(0, vocab)), *ctx]
            for c in (ctx, other, ctx):
                assert np.array_equal(target.score(c), fresh_target.score(c))
                assert np.array_equal(draft.score(c), fresh_draft.score(c))

    @pytest.mark.parametrize("target_cfg, draft_cfg", MEMO_CONFIGS)
    @pytest.mark.parametrize(
        "settings",
        [
            dict(draft_mode="greedy"),
            dict(draft_mode="sample", temperature=0.7, seed=5),
            dict(mode="tree", tree_top_k=2, k=4),
        ],
    )
    def test_decode_matches_fresh_models(self, target_cfg, draft_cfg, settings):
        target = SyntheticTargetModel(target_cfg)
        draft = PerturbedDraftModel(target, draft_cfg)
        fresh_target, fresh_draft = fresh_pair(target_cfg, draft_cfg)
        config = DecodeConfig(VerificationPolicy.margin_aware(0.9), max_tokens=150, **settings)
        prompt = [1, 2, 0]
        assert decode(target, draft, config, prompt) == decode(
            fresh_target, fresh_draft, config, prompt
        )
        assert greedy_decode(target, prompt, 150) == greedy_decode(fresh_target, prompt, 150)
        assert build_draft_tree(draft, prompt, 2, 5) == build_draft_tree(fresh_draft, prompt, 2, 5)

    @pytest.mark.parametrize("noise_scale", [0.5, 0.0])
    def test_memoised_window_still_checks_the_whole_context(self, noise_scale):
        target, draft = make_pair(noise_scale=noise_scale)
        for model in (target, draft):
            model.score([1, 2])
            assert (1, 2) in model._memo
            for bad in ([99, 1, 2], [-1, 1, 2]):
                with pytest.raises(ValueError, match="out of vocabulary"):
                    model.score(bad)

    @pytest.mark.parametrize("noise_scale", [0.5, 0.0])
    def test_returned_logits_are_read_only(self, noise_scale):
        target, draft = make_pair(noise_scale=noise_scale)
        for model in (target, draft):
            for _ in range(2):  # the computed vector, then the memoised one
                z = model.score([4, 5])
                with pytest.raises(ValueError, match="read-only"):
                    z[0] = 0.0
        # the refused writes left the memoised vector as a fresh model scores it
        assert np.array_equal(target.score([4, 5]), make_pair()[0].score([4, 5]))

    def test_memo_stops_growing_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(models, "MEMO_FLOATS", 5 * 64)
        target, draft = make_pair()
        fresh_target, fresh_draft = fresh_pair(target.config, draft.config)
        for ctx in random_contexts(5, 40):
            for model, fresh in ((target, fresh_target), (draft, fresh_draft)):
                z = model.score(ctx)
                assert not z.flags.writeable
                assert np.array_equal(z, fresh.score(ctx))
        assert len(target._memo) == 5
        assert len(draft._memo) == 5


SHARED_PAIR_GRID = {"theta": [0.8, 0.95], "k": [2, 3], "temperature": [0.6, 1.4], "repetitions": 2}


@pytest.mark.parametrize("memo_floats", [models.MEMO_FLOATS, 5 * 64])
@pytest.mark.parametrize("draft_mode", ["sample", "greedy"])
@pytest.mark.parametrize("mode", ["chain", "tree"])
def test_sweep_rows_equal_rows_of_per_point_fresh_models(monkeypatch, memo_floats, draft_mode, mode):
    """A sweep shares one model pair across its points, and its memo with them;
    the rows are those of building a fresh pair for every point."""
    monkeypatch.setattr(models, "MEMO_FLOATS", memo_floats)  # 5 windows: past the cap
    spec = spec_from_dict(
        {**SHARED_PAIR_GRID, "draft_mode": draft_mode, "mode": mode, "max_tokens": 80}
    )
    grid = product(spec.theta, spec.k, spec.temperature, range(spec.repetitions))
    fresh = [run_point(spec, *point) for point in grid]
    built = []
    monkeypatch.setattr(
        experiment, "SyntheticTargetModel", lambda cfg: built.append(cfg) or SyntheticTargetModel(cfg)
    )
    assert sweep_rows(spec) == fresh
    assert len(fresh) == 16 and built == [spec.target]
