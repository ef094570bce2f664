import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify.logits import top_two
from specverify.models import PerturbedDraftConfig, PerturbedDraftModel, draft_chain
from specverify.verify import (
    Decision,
    TreeNode,
    VerificationPolicy,
    decide_position,
    verify_chain,
    verify_tree,
)

from conftest import make_pair

MARGIN_09 = VerificationPolicy.margin_aware(0.9)
STRICT = VerificationPolicy.strict()


def oracle_decide(values, draft_tok, policy):
    """Literal three-branch rule on a full sort; independent of the library path."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    v1, v2 = order[0], order[1]
    z1, z2 = values[v1], values[v2]
    if draft_tok == v1:
        return ("exact", draft_tok)
    if policy.kind == "margin" and draft_tok == v2 and z1 > 0 and z2 / z1 > policy.theta:
        return ("relaxed", draft_tok)
    return ("rejected", v1)


def chain_to_tree(tokens):
    """A drafted chain as a branching-1 token tree."""
    roots = []
    for tok in reversed(tokens):
        roots = [TreeNode(int(tok), tuple(roots))]
    return roots


def random_cycle(rng, k=7, vocab=16):
    """Random (draft, target logits) with a mix of exact/relaxed/rejected positions."""
    vectors = []
    drafts = []
    for _ in range(k):
        loc = rng.choice([-6.0, 3.0], p=[0.15, 0.85])  # some steps with z1 <= 0
        z = rng.normal(loc, 2.0, vocab)
        t = top_two(z)
        u = rng.random()
        if u < 0.5:
            tok = t.v1
        elif u < 0.75:
            tok = t.v2
        else:
            tok = int(rng.integers(0, vocab))
        vectors.append(z)
        drafts.append(tok)
    bonus = rng.normal(3.0, 2.0, vocab)
    return drafts, vectors, bonus


class TestPolicy:
    def test_theta_validated(self):
        with pytest.raises(ValueError):
            VerificationPolicy.margin_aware(0.0)
        with pytest.raises(ValueError):
            VerificationPolicy.margin_aware(1.2)
        with pytest.raises(ValueError):
            VerificationPolicy(kind="loose")


class TestWorkflowScenarios:
    """The two regimes of the verification workflow, theta = 0.9."""

    def test_low_margin_relaxed_accept(self):
        # r = 9.11/10.0 = 0.911 > 0.9: the runner-up draft is kept
        logits = np.array([10.0, 9.11, 1.0, 0.5])
        result = verify_chain([1], [logits], MARGIN_09, bonus_logits=logits)
        assert result.decisions[0].label is Decision.RELAXED
        assert result.decisions[0].emitted_token == 1
        assert result.accepted_count == 1

    def test_high_margin_rejected(self):
        # r = 7.28/10.0 = 0.728 < 0.9: strict behavior, top-1 emitted
        logits = np.array([10.0, 7.28, 1.0, 0.5])
        result = verify_chain([1], [logits], MARGIN_09)
        assert result.decisions[0].label is Decision.REJECTED
        assert result.decisions[0].emitted_token == 0
        assert result.committed_tokens == (0,)
        assert result.accepted_count == 0
        assert result.bonus_token is None


class TestVerifyChain:
    def test_aligned_drafter_fully_accepts(self, target):
        drf = PerturbedDraftModel(target, PerturbedDraftConfig(noise_seed=0, noise_scale=0.0))
        ctx = [2, 3]
        drafted = draft_chain(drf, ctx, 7)
        vectors = [target.score(ctx + drafted[:i]) for i in range(8)]
        for policy in (STRICT, MARGIN_09):
            result = verify_chain(drafted, vectors[:7], policy, bonus_logits=vectors[7])
            assert [d.label for d in result.decisions] == [Decision.EXACT] * 7
            assert len(result.committed_tokens) == 8
            assert result.bonus_token is not None

    def test_truncates_at_first_failure(self):
        ok = np.array([1.0, 5.0, 2.0])  # v1 = 1
        result = verify_chain([1, 0, 1], [ok, ok, ok], STRICT, bonus_logits=ok)
        assert [d.label for d in result.decisions] == [Decision.EXACT, Decision.REJECTED]
        assert result.committed_tokens == (1, 1)  # accepted draft + correction v1
        assert result.accepted_count == 1
        assert result.bonus_token is None

    def test_length_mismatch_rejected(self):
        z = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            verify_chain([0, 1], [z], STRICT)
        with pytest.raises(ValueError):
            verify_chain([], [], STRICT)

    def test_decisions_match_bruteforce_oracle(self):
        rng = np.random.default_rng(2718)
        for _ in range(300):
            drafts, vectors, bonus = random_cycle(rng)
            theta = float(rng.choice([0.84, 0.9, 0.96]))
            policy = VerificationPolicy.margin_aware(theta)
            result = verify_chain(drafts, vectors, policy, bonus_logits=bonus)
            for d, tok, z in zip(result.decisions, drafts, vectors):
                label, emitted = oracle_decide(list(z), tok, policy)
                assert (d.label.value, d.emitted_token) == (label, emitted)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_theta_one_equals_strict(self, seed):
        rng = np.random.default_rng(seed)
        drafts, vectors, bonus = random_cycle(rng)
        strict = verify_chain(drafts, vectors, STRICT, bonus_logits=bonus)
        relaxed = verify_chain(drafts, vectors, VerificationPolicy.margin_aware(1.0), bonus_logits=bonus)
        assert strict == relaxed

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_margin_dominates_strict_per_cycle(self, seed):
        rng = np.random.default_rng(seed)
        drafts, vectors, bonus = random_cycle(rng)
        strict = verify_chain(drafts, vectors, STRICT, bonus_logits=bonus)
        margin = verify_chain(drafts, vectors, MARGIN_09, bonus_logits=bonus)
        assert margin.accepted_count >= strict.accepted_count

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_acceptance_monotone_in_theta(self, seed):
        rng = np.random.default_rng(seed)
        drafts, vectors, bonus = random_cycle(rng)
        counts = [
            verify_chain(drafts, vectors, VerificationPolicy.margin_aware(t), bonus_logits=bonus).accepted_count
            for t in (0.84, 0.88, 0.92, 0.96, 1.0)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_accepted_tokens_only_v1_or_v2(self, seed):
        rng = np.random.default_rng(seed)
        drafts, vectors, bonus = random_cycle(rng)
        result = verify_chain(drafts, vectors, MARGIN_09, bonus_logits=bonus)
        for d, z in zip(result.decisions, vectors):
            t = top_two(z)
            if d.label is Decision.EXACT:
                assert d.emitted_token == t.v1
            elif d.label is Decision.RELAXED:
                assert d.emitted_token == d.draft_token == t.v2
                assert d.ratio is not None and d.ratio > 0.9
            else:
                assert d.emitted_token == t.v1 != d.draft_token

    def test_relaxation_disabled_when_top_logit_nonpositive(self):
        z = np.array([-0.5, -0.6, -9.0])  # v1=0, v2=1, ratio undefined
        result = verify_chain([1], [z], VerificationPolicy.margin_aware(0.5))
        assert result.decisions[0].label is Decision.REJECTED
        assert result.decisions[0].ratio is None


class TestDecidePosition:
    def test_strict_never_relaxes(self):
        t = top_two([10.0, 9.99])
        d = decide_position(t, 1, STRICT)
        assert d.label is Decision.REJECTED


class TestVerifyTree:
    def test_chain_embedding_matches_verify_chain(self, target):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ctx = [int(x) for x in rng.integers(0, 64, 2)]
            tokens = [int(x) for x in rng.integers(0, 64, 5)]
            tree = chain_to_tree(tokens)
            tree_result = verify_tree(tree, target, ctx, MARGIN_09)
            vectors = [target.score(ctx + tokens[:i]) for i in range(6)]
            chain_result = verify_chain(tokens, vectors[:5], MARGIN_09, bonus_logits=vectors[5])
            assert tree_result == chain_result

    def test_exact_match_child_preferred_over_relaxed(self, target):
        ctx = [11, 12]
        t = top_two(target.score(ctx))
        follow_v1 = TreeNode(t.v1, (TreeNode((t.v1 + 1) % 64),))
        follow_v2 = TreeNode(t.v2, (TreeNode((t.v2 + 1) % 64),))
        # v2 first in child order; v1 must still win
        result = verify_tree([follow_v2, follow_v1], target, ctx, VerificationPolicy.margin_aware(1e-9))
        assert result.decisions[0].label is Decision.EXACT
        assert result.committed_tokens[0] == t.v1

    def test_first_duplicate_child_wins(self, target):
        ctx = [21, 22]
        t = top_two(target.score(ctx))
        a = TreeNode(t.v1, (TreeNode(0),))
        b = TreeNode(t.v1, (TreeNode(1),))
        result = verify_tree([a, b], target, ctx, STRICT)
        # the walk continued into a's subtree, so position 2 saw child token 0
        assert result.decisions[1].draft_token == 0

    def test_relaxed_child_followed_when_no_exact(self, target):
        rng = np.random.default_rng(13)
        for _ in range(200):
            ctx = [int(x) for x in rng.integers(0, 64, 2)]
            t = top_two(target.score(ctx))
            if t.ratio is not None and t.ratio > 0.9:
                other = (t.v1 + 7) % 64
                if other in (t.v1, t.v2):
                    continue
                result = verify_tree(
                    [TreeNode(other), TreeNode(t.v2)], target, ctx, MARGIN_09
                )
                assert result.decisions[0].label is Decision.RELAXED
                assert result.committed_tokens[0] == t.v2
                break
        else:
            pytest.fail("no relaxation-zone context found in 200 draws")

    def test_full_depth_appends_bonus(self, target):
        drf = PerturbedDraftModel(target, PerturbedDraftConfig(noise_seed=0, noise_scale=0.0))
        tokens = draft_chain(drf, [30, 31], 4)
        result = verify_tree(chain_to_tree(tokens), target, [30, 31], STRICT)
        assert result.bonus_token is not None
        assert len(result.committed_tokens) == 5

    def test_empty_tree_rejected(self, target):
        with pytest.raises(ValueError):
            verify_tree([], target, [1, 2], STRICT)

    def test_out_of_vocab_node_rejected(self, target):
        with pytest.raises(ValueError):
            verify_tree([TreeNode(64)], target, [1, 2], STRICT)

    def test_tree_commits_at_least_greedy_path(self):
        # paired replay: tree verification vs its own first-child chain
        target, draft = make_pair(target_seed=42, noise_scale=0.5)
        rng = np.random.default_rng(4242)
        for _ in range(200):
            ctx = [int(x) for x in rng.integers(0, 64, 2)]
            roots = _random_tree(rng, branching=4, depth=5, vocab=64)
            path = []
            nodes = roots
            while nodes:
                path.append(nodes[0].token)
                nodes = nodes[0].children
            tree_result = verify_tree(roots, target, ctx, MARGIN_09)
            vectors = [target.score(ctx + path[:i]) for i in range(len(path) + 1)]
            chain_result = verify_chain(path, vectors[:-1], MARGIN_09, bonus_logits=vectors[-1])
            assert len(tree_result.committed_tokens) >= len(chain_result.committed_tokens)


def _random_tree(rng, branching, depth, vocab):
    if depth == 0:
        return ()
    nodes = []
    for tok in rng.choice(vocab, size=branching, replace=False):
        nodes.append(TreeNode(int(tok), _random_tree(rng, branching, depth - 1, vocab)))
    return tuple(nodes)
