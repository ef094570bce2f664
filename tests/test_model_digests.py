"""Golden SHA-256 digests of the synthetic models' raw outputs.

For each pinned config, every listed window's target and draft logits, the
fields of their top-2 and their sampling CDFs at temperatures 0.7 and 1e-310
are hashed as raw bytes, read through the memo (`logits_at`, `top_two_at`,
`cdf_at`). A change to how a window is seeded or derived that moves any
output bit changes a digest here.

Print the current digests (to refresh them after a deliberate output change):

    PYTHONPATH=src python tests/test_model_digests.py
"""

from __future__ import annotations

import hashlib
import struct
import sys

import numpy as np

from specverify.models import (
    PerturbedDraftConfig,
    PerturbedDraftModel,
    SyntheticTargetConfig,
    SyntheticTargetModel,
)

# name -> (target config, draft config, number of windows in id order)
CONFIGS = {
    "v5_order2": (SyntheticTargetConfig(seed=42, vocab_size=5), PerturbedDraftConfig(7), None),
    # the nested.json spec of tests/test_golden.py
    "nested": (
        SyntheticTargetConfig(seed=17, vocab_size=48, order=3, logit_offset=0.25, logit_spread=1.5),
        PerturbedDraftConfig(noise_seed=11, noise_scale=0.8),
        2000,
    ),
    "v5_order2_noise0": (
        SyntheticTargetConfig(seed=42, vocab_size=5), PerturbedDraftConfig(7, noise_scale=0.0), None
    ),
}
TEMPERATURES = (0.7, 1e-310)
KINDS = ("logits", "top_two", *(f"cdf_{t:g}" for t in TEMPERATURES))

GOLDEN = {
    "v5_order2": {
        "logits": "f86b076eebb6a5ee935c65b69caaf8f969827071f0592e65f431ae084fdef5cb",
        "top_two": "a7515a49a65d661bb379f3bb84627c77f990fedf7cf6f2a969c1f01527e27b34",
        "cdf_0.7": "5db5fc46b0c58ae89a6bf63a92b89491fb52f7df69b11bcc206b02e12b1954fb",
        "cdf_1e-310": "d798dbc4a3f66763152fd01881940b00d2be783ab84c8baecec566ebc56d5d23",
    },
    "nested": {
        "logits": "24e182b70bb777f2d9b0be9b3dfb74dd3ec829a30c16bc4c92dd3429eaf2d1b3",
        "top_two": "d5681822802737e5a46fb04ad57a012da7f30de1184f070179a81a153d4377b5",
        "cdf_0.7": "d53852e0b805c1d89bd8672def6c06d36a34173252432e953284f89e0a25519f",
        "cdf_1e-310": "b9f31746b836526c9132b2ba73d5210a873f7a61bd981ce8d82c828ddaf07844",
    },
    "v5_order2_noise0": {
        "logits": "0b63837149b0e29c4ec900d2afb6a9588994d5de177227de1d7d508d8afb4c61",
        "top_two": "6938069a5c23443f49572e5ed51c2b4c2d98d16d3483b6bd247db9e0fdd0e4e0",
        "cdf_0.7": "44929eb9d2191bd4b8b8312350606394dc4c80fff0c2a30fcebfc64db09f7650",
        "cdf_1e-310": "76458dc7ba8ff16b9a0199fe39999a74373159706f43746bd9b99f3fb86faf01",
    },
}


def window_ids(model: SyntheticTargetModel, count: int | None) -> list[int]:
    """The ids of the model's windows (the empty one first) in id order:
    all of them, or the first `count`. An id with a zero digit names no window."""
    ids, w = [], 0
    while w < model._modulus and (count is None or len(ids) < count):
        if min(model.window(w), default=0) >= 0:
            ids.append(w)
        w += 1
    return ids


def _top_two_bytes(top) -> bytes:
    ratio = np.nan if top.ratio is None else top.ratio
    return struct.pack("<qqddd", top.v1, top.v2, top.z1, top.z2, ratio)


def model_digests(name: str) -> dict[str, str]:
    """Each kind's digest over the config's windows, target then draft per window."""
    target_config, draft_config, count = CONFIGS[name]
    target = SyntheticTargetModel(target_config)
    draft = PerturbedDraftModel(target, draft_config)
    ids = window_ids(target, count)
    h = {kind: hashlib.sha256() for kind in KINDS}
    for w in ids:
        for model in (target, draft):
            h["logits"].update(model.logits_at(w).tobytes())
            h["top_two"].update(_top_two_bytes(model.top_two_at(w)))
    for t in TEMPERATURES:
        for w in ids:
            for model in (target, draft):
                h[f"cdf_{t:g}"].update(model.cdf_at(w, t).tobytes())
    return {kind: digest.hexdigest() for kind, digest in h.items()}


def test_model_output_digests():
    assert {name: model_digests(name) for name in CONFIGS} == GOLDEN


def test_draft_leaves_the_target_memo_untouched():
    """A draft window is the target's vector plus noise, computed into a new
    array: the target's read-only memo arrays keep their bytes."""
    target_config, draft_config, _ = CONFIGS["nested"]
    target = SyntheticTargetModel(target_config)
    draft = PerturbedDraftModel(target, draft_config)
    ids = window_ids(target, 300)
    before = [target.logits_at(w) for w in ids]
    copies = [z.copy() for z in before]
    for w in ids:
        z = draft.logits_at(w)
        assert not np.shares_memory(z, target.logits_at(w))
        assert not z.flags.writeable
    for w, z, copy in zip(ids, before, copies):
        assert target.logits_at(w) is z
        assert not z.flags.writeable
        assert z.tobytes() == copy.tobytes()


def test_zero_noise_draft_returns_the_target_vector():
    target_config, draft_config, _ = CONFIGS["v5_order2_noise0"]
    target = SyntheticTargetModel(target_config)
    draft = PerturbedDraftModel(target, draft_config)
    for w in window_ids(target, None):
        assert draft.logits_at(w) is target.logits_at(w)


if __name__ == "__main__":
    for config in CONFIGS:
        print(f'    "{config}": {{', file=sys.stdout)
        for kind, digest in model_digests(config).items():
            print(f'        "{kind}": "{digest}",', file=sys.stdout)
        print("    },", file=sys.stdout)
