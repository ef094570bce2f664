import hashlib
import re
from itertools import cycle, product

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    check_tree_size,
    draft_chain,
    draft_walk,
    pack_tokens,
    window_reader,
    window_rng,
)
from specverify.verify import VerificationPolicy

from conftest import make_pair, random_contexts
from trace_oracle import TreeNode, build_draft_tree


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

    def test_logit_range_bounds_every_logit(self):
        cfg = SyntheticTargetConfig(seed=3, vocab_size=8, order=1, logit_offset=-1.0, logit_spread=3.0)
        z = np.concatenate([SyntheticTargetModel(cfg).score([t]) for t in range(8)])
        low, high = cfg.logit_range
        assert low <= z.min() and z.max() <= high

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spread_is_refused_where_a_logit_could_overflow(self):
        # the largest Gumbel draw is 36.7368: a spread of top / 36.74 stays finite
        top = np.finfo(np.float64).max
        cfg = SyntheticTargetConfig(seed=1, logit_spread=top / 36.74, logit_offset=0.0)
        assert np.isfinite(cfg.logit_range).all()
        assert np.isfinite(SyntheticTargetModel(cfg).score([1, 2])).all()
        with pytest.raises(ValueError, match="field 'logit_spread'"):
            SyntheticTargetConfig(seed=1, logit_spread=top / 36.73)
        with pytest.raises(ValueError, match="field 'logit_offset'"):
            SyntheticTargetConfig(seed=1, logit_spread=top / 73.5, logit_offset=top / 1.9)
        with pytest.raises(ValueError, match="field 'vocab_size'.*262144"):
            SyntheticTargetConfig(seed=1, vocab_size=models.MAX_VOCAB + 1)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_noise_that_could_overflow_is_refused(self, target):
        PerturbedDraftModel(target, PerturbedDraftConfig(noise_seed=1, noise_scale=1e307))
        with pytest.raises(ValueError, match="field 'draft.noise_scale': 2e\\+307"):
            PerturbedDraftModel(target, PerturbedDraftConfig(noise_seed=1, noise_scale=2e307))

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

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None, True])
    def test_a_k_that_is_not_an_integer_is_named(self, draft, k):
        with pytest.raises(ValueError, match=rf"^k {re.escape(repr(k))} is not an integer$"):
            draft_walk(draft, [1, 2], k)
        assert draft_chain(draft, [1, 2], np.int64(3)) == draft_chain(draft, [1, 2], 3)

    def test_a_walk_checks_and_draws_when_created(self, draft):
        """A walk read one token in leaves its generator where a whole chain does."""
        read_one, whole = np.random.default_rng(3), np.random.default_rng(3)
        walk = draft_walk(draft, [1, 2], 5, 0.8, "sample", read_one)
        assert next(walk) == draft_chain(draft, [1, 2], 5, 0.8, "sample", whole)[0]
        assert read_one.bit_generator.state == whole.bit_generator.state
        with pytest.raises(ValueError, match="token 99"):
            draft_walk(draft, [99, 1], 3)

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


def top_two_of(model, context):
    """A model's top-2 at the window of a context, read by id."""
    return model.top_two_at(model.window_id(context))


def cdf_of(model, context, temperature):
    """A model's sampling CDF at the window of a context, read by id."""
    return model.cdf_at(model.window_id(context), temperature)


def score_derived_cdf(z, temperature):
    """The sampling CDF as draft_chain derived it from a score on every draw."""
    cdf = softmax(z, temperature).cumsum()
    cdf /= cdf[-1]
    return cdf

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

    @pytest.mark.parametrize("memo_windows", [None, 5])
    @pytest.mark.parametrize("target_cfg, draft_cfg", MEMO_CONFIGS)
    def test_statistics_match_the_score_derived_ones(
        self, monkeypatch, memo_windows, target_cfg, draft_cfg
    ):
        """top_two_at and cdf_at equal what a score-only model derives from its
        score, for repeated windows behind new histories and a changing temperature."""
        if memo_windows is not None:
            # an entry counts its logits and its CDF: 2V floats
            monkeypatch.setattr(models, "MEMO_FLOATS", memo_windows * 2 * target_cfg.vocab_size)
        target = SyntheticTargetModel(target_cfg)
        draft = PerturbedDraftModel(target, draft_cfg)
        fresh_target, fresh_draft = fresh_pair(target_cfg, draft_cfg)
        rng = np.random.default_rng(13)
        vocab = target_cfg.vocab_size
        # a grid visited in turn, so a memoised window's CDF is asked for at several
        temperatures = cycle([0.7, 1.0, 0.7, 1.3, 1.0])
        for _ in range(200):
            ctx = [int(t) for t in rng.integers(0, vocab, rng.integers(1, 8))]
            other = [int(rng.integers(0, vocab)), *ctx]
            for c in (ctx, other, ctx):
                temperature = next(temperatures)
                for model, fresh in ((target, fresh_target), (draft, fresh_draft)):
                    assert top_two_of(model, c) == top_two(fresh.score(c))
                    cdf = cdf_of(model, c, temperature)
                    assert not cdf.flags.writeable
                    assert np.array_equal(cdf, score_derived_cdf(fresh.score(c), temperature))
        if memo_windows is not None:
            assert len(target._memo) == len(draft._memo) == memo_windows

    def test_statistics_are_derived_once_per_window_and_temperature(self):
        target, draft = make_pair()
        assert top_two_of(target, [3, 4]) is top_two_of(target, [9, 3, 4])
        cdf = cdf_of(draft, [3, 4], 0.7)
        assert cdf_of(draft, [1, 3, 4], 0.7) is cdf
        assert cdf_of(draft, [3, 4], 1.3) is not cdf
        assert np.array_equal(cdf_of(draft, [3, 4], 0.7), cdf)

    @pytest.mark.parametrize("noise_scale", [0.5, 0.0])
    def test_memoised_window_still_checks_the_whole_context(self, noise_scale):
        target, draft = make_pair(noise_scale=noise_scale)
        for model in (target, draft):
            reads = (model.score, lambda c: top_two_of(model, c), lambda c: cdf_of(model, c, 0.7))
            for read in reads:
                read([1, 2])
            assert 2 * 65 + 3 in model._memo  # the id of [1, 2]: base-65 digits 1+1, 2+1
            for bad, read in product(([99, 1, 2], [-1, 1, 2]), reads):
                with pytest.raises(ValueError, match="out of vocabulary"):
                    read(bad)

    @pytest.mark.parametrize("noise_scale", [0.5, 0.0])
    def test_returned_logits_are_read_only(self, noise_scale):
        target, draft = make_pair(noise_scale=noise_scale)
        score_only = window_reader(FreshModel(lambda: make_pair()[0]))
        for model in (target, draft):
            for _ in range(2):  # the computed arrays, then the memoised ones
                z, cdf = model.score([4, 5]), cdf_of(model, [4, 5], 0.7)
                # so is the CDF of a model that only scores
                for array in (z, cdf, cdf_of(score_only, [4, 5], 0.7)):
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 0.0
        # the refused writes left the memoised vector as a fresh model scores it
        assert np.array_equal(target.score([4, 5]), make_pair()[0].score([4, 5]))

    def test_memo_stops_growing_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(models, "MEMO_FLOATS", 5 * 2 * 64)  # 5 windows of 2V floats
        target, draft = make_pair()
        fresh_target, fresh_draft = fresh_pair(target.config, draft.config)
        for ctx in random_contexts(5, 40):
            for model, fresh in ((target, fresh_target), (draft, fresh_draft)):
                z = model.score(ctx)
                assert not z.flags.writeable
                assert np.array_equal(z, fresh.score(ctx))
        assert len(target._memo) == 5
        assert len(draft._memo) == 5


def walk_ids(reader, tokens):
    """(context, window id) for every prefix of tokens, the empty one first,
    each id carried from the previous one as the decode loops carry it."""
    w = 0
    yield [], w
    for i, tok in enumerate(tokens):
        w = reader.step(w, tok)
        yield tokens[: i + 1], w


class TestWindowIds:
    @given(
        vocab=st.sampled_from([2, 3, 7, 64]),
        order=st.integers(1, 3),
        seeds=st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)),
        noise_scale=st.sampled_from([0.0, 0.5]),
        temperature=st.sampled_from([0.7, 1.0, 1.3]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_ids_read_what_contexts_read(self, vocab, order, seeds, noise_scale, temperature, data):
        """Reading logits, top-2 and CDF by a carried id equals reading them at
        window_id(context), for contexts shorter than, as long as and longer than order,
        for the memoised models and for a model that only scores."""
        target_cfg = SyntheticTargetConfig(seed=seeds[0], vocab_size=vocab, order=order)
        draft_cfg = PerturbedDraftConfig(noise_seed=seeds[1], noise_scale=noise_scale)
        tokens = data.draw(st.lists(st.integers(0, vocab - 1), max_size=2 * order + 2))
        target = SyntheticTargetModel(target_cfg)
        draft = PerturbedDraftModel(target, draft_cfg)
        fresh_target, fresh_draft = make_pair(*seeds, noise_scale, vocab_size=vocab, order=order)
        score_only = window_reader(FreshModel(lambda: SyntheticTargetModel(target_cfg)))
        readers = ((target, fresh_target), (draft, fresh_draft), (score_only, fresh_target))
        for reader, fresh in readers:
            seen = {}
            for ctx, w in walk_ids(reader, tokens):
                window = tuple(ctx[-order:])
                # the tokens plus one are the id's base-(V+1) digits
                assert w == sum((t + 1) * (vocab + 1) ** i for i, t in enumerate(reversed(window)))
                assert w == reader.window_id(ctx) == reader.fold(ctx)
                assert reader.window(w) == window
                assert seen.setdefault(w, window) == window  # distinct windows, distinct ids
                assert np.array_equal(reader.logits_at(w), fresh.score(ctx))
                assert reader.top_two_at(w) == top_two_of(fresh, ctx)
                cdf = reader.cdf_at(w, temperature)
                assert np.array_equal(cdf, cdf_of(fresh, ctx, temperature))

    def test_a_float_token_in_the_window_raises(self, target):
        target.score([1, 2])
        for ctx in ([1.5, 2], [1.0, 2]):  # a miss and, as an integer, a hit
            with pytest.raises(ValueError, match=rf"context token {ctx[0]} is not an integer"):
                target.score(ctx)

    @pytest.mark.parametrize("read", [
        lambda model, ctx: model.score(ctx),
        top_two_of,
        lambda model, ctx: cdf_of(model, ctx, 1.0),
        lambda model, ctx: next(draft_walk(model, ctx, 3)),
    ], ids=["score", "top_two_at", "cdf_at", "draft_walk"])
    @pytest.mark.parametrize("token", [1.5, "1", None, np.float64(2.0), True, False])
    def test_a_context_token_that_is_not_an_integer_is_named(self, read, token):
        target, draft = make_pair(vocab_size=8)
        for model in (target, draft):
            for ctx in ([token, 2], [1, 2, token, 3, 4]):  # in the window and before it
                with pytest.raises(ValueError, match=rf"^context token {re.escape(repr(token))} is not an integer$"):
                    read(model, ctx)

    @pytest.mark.parametrize("target_cfg, draft_cfg", MEMO_CONFIGS)
    def test_evicting_memo_reads_what_an_uncapped_pair_reads(
        self, monkeypatch, target_cfg, draft_cfg
    ):
        """Under a cap of 3 windows every miss evicts, and every row equals an
        uncapped pair's; an evicted window, asked again, reads as it first did."""

        def rows(target, draft):
            prompt = [1, 2, 0]
            policy = VerificationPolicy.margin_aware(0.9)
            configs = [
                DecodeConfig(policy, max_tokens=120),
                DecodeConfig(policy, max_tokens=120, draft_mode="sample", temperature=0.7, seed=5),
                DecodeConfig(policy, max_tokens=120, mode="tree", tree_top_k=2, k=4),
            ]
            return (
                [decode(target, draft, config, prompt) for config in configs],
                greedy_decode(target, prompt, 120),
                draft_chain(draft, prompt, 40),
                draft_chain(draft, prompt, 40, 0.7, "sample", 9),
                build_draft_tree(draft, prompt, 2, 5),
            )

        uncapped = SyntheticTargetModel(target_cfg)
        expected = rows(uncapped, PerturbedDraftModel(uncapped, draft_cfg))
        cap = 3
        monkeypatch.setattr(models, "MEMO_FLOATS", cap * 2 * target_cfg.vocab_size)
        target = SyntheticTargetModel(target_cfg)
        draft = PerturbedDraftModel(target, draft_cfg)
        first = [
            (model, model.score([0]), top_two_of(model, [0]), cdf_of(model, [0], 0.7))
            for model in (target, draft)
        ]
        assert rows(target, draft) == expected
        for model, z, top, cdf in first:
            assert len(model._memo) == cap
            assert model.window_id([0]) not in model._memo
            assert np.array_equal(model.score([0]), z)
            assert top_two_of(model, [0]) == top
            assert np.array_equal(cdf_of(model, [0], 0.7), cdf)
            assert len(model._memo) == cap


@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_one_batched_draw_equals_k_scalar_draws(seed, k):
    """draft_chain draws a cycle's k uniforms at once: the same doubles, and the
    same generator state after, as k scalar draws."""
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    assert batched.random(k).tolist() == [scalar.random() for _ in range(k)]
    assert batched.bit_generator.state == scalar.bit_generator.state


# 16-byte keys, padded with zero high bytes to test the words numpy drops
# from a smaller integer
@given(key=st.binary(max_size=16).map(lambda b: b.ljust(16, b"\0")))
@example(key=bytes(16))
@example(key=bytes(range(1, 13)) + bytes(4))
@example(key=bytes(range(1, 9)) + bytes(8))
@settings(max_examples=300, deadline=None)
def test_key_words_seed_what_the_key_integer_seeds(key):
    """window_rng hands SeedSequence the key's four little-endian uint32 words;
    numpy turns the key's 128-bit integer into the same words, dropping zero
    high ones, which hash as zero words: the states are equal."""
    words = np.frombuffer(key, "<u4")
    by_words = np.random.SeedSequence(words).generate_state(4, np.uint64)
    by_int = np.random.SeedSequence(int.from_bytes(key, "little")).generate_state(4, np.uint64)
    assert by_words.tobytes() == by_int.tobytes()


@given(
    seed=st.integers(-(2**63), 2**63 - 1),
    window=st.lists(st.integers(0, 2**16), max_size=8),
    salt=st.sampled_from([models._TARGET_SALT, models._DRAFT_SALT]),
)
@settings(max_examples=200, deadline=None)
def test_window_rng_draws_what_the_integer_seeded_generator_draws(seed, window, salt):
    key = hashlib.blake2b(pack_tokens((seed, salt, *window)), digest_size=16).digest()
    reference = np.random.Generator(np.random.PCG64(int.from_bytes(key, "little")))
    rng = window_rng(seed, window, salt)
    assert rng.random(16).tobytes() == reference.random(16).tobytes()
    assert rng.standard_normal(16).tobytes() == reference.standard_normal(16).tobytes()


SHARED_PAIR_GRID = {"theta": [0.8, 0.95], "k": [2, 3], "temperature": [0.6, 1.4], "repetitions": 2}


@pytest.mark.parametrize("memo_floats", [models.MEMO_FLOATS, 5 * 2 * 64])
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


@pytest.mark.parametrize(
    "fields",
    [
        dict(draft_mode="greedy"),
        dict(draft_mode="sample"),
        dict(draft_mode="sample", mode="tree", tree_top_k=2),
    ],
)
def test_sweep_rows_equal_rows_of_a_score_only_pair(fields):
    """Models offering only `score` decode through the same statistics: every row
    of a sweep over a temperature grid equals the shared memoised pair's."""
    spec = spec_from_dict({**SHARED_PAIR_GRID, **fields, "max_tokens": 60})
    score_only = fresh_pair(spec.target, spec.draft)
    grid = product(spec.theta, spec.k, spec.temperature, range(spec.repetitions))
    assert sweep_rows(spec) == [run_point(spec, *point, score_only) for point in grid]
