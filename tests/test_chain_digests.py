"""Bit-identity of the chain builder.

The sha256 digests below were recorded from ``build_chain`` before its
end-of-piece rule and its singular-point nodes were each written once.
Each digest covers one array of the ``ChainModel``; node order is part
of every digest, because the engine's ``final_node`` indexes nodes.  The
refusal messages were recorded at the same time.

The ``tau`` and ``node_mass`` digests of 24 cases, and the ``rough``
warning, were re-recorded when the holding-time cells moved from a fixed
order-16 Gauss-Legendre rule, checked against order 8, to one first
round of ``cell_quad``'s GK21 rule, checked by its own error estimate.
Both rules are exact on these integrands but for round-off, so only
last digits moved: outside ``rough``, tau by at most 1.04e-13 and
node_mass by at most 4.2e-16, relative.  That largest move, on ``atom``
(-1, 2), took tau from 1.06e-13 to 1.2e-14 off its exact value.  The
other seven cases did not move: the ``drift`` and ``segment`` (0, 1)
chains have shunt-segment nodes only, and the rounded cases moved below
12 digits.

The ``node_mass`` digests of 27 cases were re-recorded when the node
mass became the speed measure of each node's hat function in scale,
from the two cell integrals that give tau, in place of half the speed
mass of the node's two cells: the chain is reversible for the new mass
(``test_chain_is_reversible_for_its_node_mass``) and was not for the
old one on a curved scale.  Only ``node_mass`` moved.  On a linear
scale with a flat density the two rules agree but for round-off (at
most 3.4e-12, relative, on ``bm``) and the 1e-9 scale bias at singular
points (at most 2.3e-8); they differ by design on curved scales, at
atoms, next to infinite ends, and at shunt points' entry nodes, which
had mass 0 (or only their atom) before.  The other four cases did not
move: ``drift`` and ``segment`` (0, 1) have no walk nodes, and
``bessel-glue`` (-1, 0) moved below 12 digits.

The windows cover infinite ends, included shunt points (with and without
an atom on them), traps, shunt segments cut at either end, and window
edges that fall exactly on a piece endpoint.

``bessel-glue`` (scale ln x) and ``cubic`` (scale x^3) go through numpy's
``log`` and ``power``, whose last bit may depend on the SIMD extensions
of the machine, so their float arrays are digested rounded to 12
significant digits.  Integer arrays, the warnings and every array of the
other specs, whose expressions use arithmetic and abs only, are
digested exactly.
"""

import hashlib
import math

import numpy as np
import pytest

from shuntline import (ChainBuildError, boundary_profile, chain, get_example,
                       parse_spec, simulate)
from shuntline.examples import example_document, list_examples
from shuntline.quadrature import INFINITE, IntegralResult
from shuntline.simulate import build_chain

from conftest import mirrored_doc

INF = math.inf
FIELDS = ("x", "u", "kind", "tau", "nbr_left", "nbr_right", "det_target",
          "node_mass")
ROUNDED = {"bessel-glue", "cubic"}

SEGMENT = {"name": "segment", "pieces": [
    {"kind": "regular_interval", "a": "-inf", "b": "0",
     "scale": "x", "speed": {"density": "2"}},
    {"kind": "singular_point", "x": "0", "class": "right_shunt"},
    {"kind": "shunt_segment", "a": "0", "b": "1", "direction": "right"},
    {"kind": "singular_point", "x": "1", "class": "right_shunt"},
    {"kind": "regular_interval", "a": "1", "b": "inf",
     "scale": "x", "speed": {"density": "2"}}]}

DOCS = {
    "cubic": {"name": "cubic", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "inf",
         "scale": "x^3", "speed": {"density": "2"}}]},
    # atoms on the included shunt point (entry mass) and inside the piece
    "atom": {"name": "atom", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "0",
         "scale": "x/2", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "right_shunt"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "x*x*x + x",
         "speed": {"density": "1 + x*x",
                   "atoms": [{"at": 0.0, "weight": 0.7},
                             {"at": 0.5, "weight": 1.5}]}}]},
    # a kink in the density: the cells' GK21 error estimate warns
    "rough": {"name": "rough", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "inf",
         "scale": "x", "speed": {"density": "abs(x - 0.33)"}}]},
    "segment": SEGMENT,
    "segment-left": mirrored_doc(SEGMENT),
    # invalid specs still parse; the builder refuses them itself
    "open-side-trap": {"name": "open-side-trap", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "0",
         "scale": "x", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "right_shunt"},
        {"kind": "trap_segment", "a": "0", "b": "inf"}]},
    "zero-density": {"name": "zero-density", "pieces": [
        {"kind": "regular_interval", "a": "-inf", "b": "inf",
         "scale": "x", "speed": {"density": "0"}}]},
    "partial": {"name": "partial", "pieces": [
        {"kind": "shunt_segment", "a": "-inf", "b": "0",
         "direction": "right", "reach": "partial:-1"},
        {"kind": "singular_point", "x": "0", "class": "right_shunt"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "x/2", "speed": {"density": "2"}}]},
}


def _spec(name):
    return get_example(name) if name in list_examples() \
        else parse_spec(DOCS[name])


BUILDS = [
    ("bm", (0.0, 1.0), 0.05),
    ("bm", (-1.0, 2.0), 0.02),
    ("drift", (-1.0, 1.0), 0.05),                # shunt segment cut at both ends
    ("drift", (0.25, 0.75), 0.02),
    ("bessel-glue", (-1.0, 0.0), 0.05),          # edge on a piece endpoint
    ("bessel-glue", (1.0, 3.0), 0.05),
    ("exa1", (-2.5, 2.5), 0.05),                 # included shunt point
    ("exa1", (0.0, 1.0), 0.05),                  # edge on a piece endpoint
    ("exa1", (-1.0, 0.0), 0.02),
    ("exa2", (-1.0, 2.0), 0.05),                 # trap
    ("exa2", (-INF, 1.0), 0.05),                 # infinite end in trap material
    ("exa2", (0.0, 1.0), 0.05),                  # edge on the trap
    ("absorb-reflect", (-0.5, 1.5), 0.05),       # trap and included shunt
    ("absorb-reflect", (-0.5, 1.0), 0.05),       # edge on the shunt point
    ("absorb-reflect", (-INF, INF), 0.02),
    ("split-bm", (0.25, 0.75), 0.05),
    ("split-bm", (1.0, 3.0), 0.02),
    ("nonradon", (0.5, INF), 0.05),              # node at +inf
    ("nonradon", (0.25, 0.75), 0.05),
    ("cubic", (0.0, 1.0), 0.02),
    ("cubic", (-1.0, 1.0), 0.05),
    ("atom", (-1.0, 2.0), 0.05),
    ("atom", (0.0, 1.0), 0.05),                  # atom on the cut edge
    ("rough", (0.0, 1.0), 0.05),
    ("segment", (-1.0, 2.0), 0.05),              # point feeds the segment
    ("segment", (0.5, 2.0), 0.05),               # segment cut upstream
    ("segment", (-1.0, 0.5), 0.05),              # segment cut downstream
    ("segment", (0.0, 1.0), 0.05),               # edges on both points
    ("segment-left", (-2.0, 1.0), 0.05),
    ("segment-left", (-0.5, 1.0), 0.05),
    ("segment-left", (-2.0, -0.5), 0.05),
]

REFUSALS = [
    ("bm", (-INF, INF), 0.05,
     "piece 0: window reaches -inf but the end is not approachable with "
     "bounded scale; provide a finite window"),
    ("exa1", (-1.0, INF), 0.05,
     "piece 2: window reaches +inf but the end is not approachable with "
     "bounded scale; provide a finite window"),
    ("drift", (-INF, 1.0), 0.05,
     "piece 0: shunt segment extends to infinity inside the window; "
     "provide a finite window"),
    ("bessel-glue", (-1.0, 1.0), 0.05,
     "piece 2: endpoint 0.0 is inside the window but cannot be reached "
     "from inside (role entrance_unreachable); shrink the window to "
     "exclude it"),
    ("split-bm", (-1.0, 1.0), 0.05,
     "piece 0: endpoint 0.0 is inside the window but cannot be reached "
     "from inside (role natural); shrink the window to exclude it"),
    ("split-bm", (-1.0, 0.0), 0.05,
     "piece 0: window edge 0.0 falls on a piece endpoint where the "
     "scale is unbounded; move the window edge off the endpoint"),
    ("nonradon", (-1.0, 0.0), 0.02,
     "piece 0: window edge 0.0 falls on a piece endpoint where the "
     "scale is unbounded; move the window edge off the endpoint"),
    ("partial", (-2.0, 1.0), 0.05,
     "piece 0: partial-reach shunt segments are symbolic only and cannot "
     "be simulated"),
    ("open-side-trap", (-1.0, 1.0), 0.05,
     "shunt point at 0.0 pushes toward material outside the window; "
     "widen the window on its open side"),
    ("zero-density", (0.0, 1.0), 0.05,
     "degenerate holding time 0.0 at node x=0.04999999999998295; the "
     "speed measure may vanish or blow up there"),
]


def _digest(name, field, values):
    a = np.ascontiguousarray(values)
    if name in ROUNDED and a.dtype.kind == "f":
        data = "|".join(f"{v:.11e}" for v in a.tolist()).encode()
    else:
        data = a.tobytes()
    return hashlib.sha256(data).hexdigest()


def _case_id(name, window, h):
    return f"{name}{window}h{h}"


def chain_digests(name, window, h):
    ch = build_chain(_spec(name), window, h)
    out = {f: _digest(name, f, getattr(ch, f)) for f in FIELDS}
    out["warnings"] = ch.warnings
    return out


DIGESTS = {
    'bm(0.0, 1.0)h0.05': {
        'x':
            "3dfafb483d127c915d8522752b4fa3de9141eab0637c9ba7b62bd92674a5fa69",
        'u':
            "b9e46285f80b85fe229270ebbc86868a5d5bcc6eb16f3ae02fa37c364ea8db11",
        'kind':
            "17c8863e9cc527d528b9c8b53060b78d5a47939a21afe5edc59154369074600c",
        'tau':
            "ea1c76d402071250526634fbf416e28f00d1b9f7fb5feb5d7077a5dd5754b957",
        'nbr_left':
            "1910c62ad78c7e4d1f77c97634b0a30b5046ea9f0159cb8274bb18661c92e4b3",
        'nbr_right':
            "0716e6e8e6903b76cd2201f296717d21e924ea98b05781ce6eeead95bf3ac8b1",
        'det_target':
            "d4aeb32717fdf59836f8b090ed470955826756e10de9db193f79fbe5794f110f",
        'node_mass':
            "ba4e7db8207a9ade689efa5e5cef87a9ad967871a97169a756bdfa6ffcb8ee22",
        "warnings": (),
    },
    'bm(-1.0, 2.0)h0.02': {
        'x':
            "ea70507b5f417fde8791bffd34dd6cfad6d12f79f2a3d8438bb84af445862e21",
        'u':
            "118af495a742f182f8c560d24e13237a1c092c2c791d96229d07efb2a8f34c47",
        'kind':
            "2110be6cad460147d5b098120d45a142cc0c6d16a9e298a224d7bbf80bd648e9",
        'tau':
            "494b719cb6e26e8c4608f733e4c58d3f505d2b5f39f1f4945badb55e4fee74dd",
        'nbr_left':
            "d2e96a58aacd018f06950b2ee5063da4b428f47c1fa45cece70371de61ff6165",
        'nbr_right':
            "e897d9f7b2118f2acdd08620d75f17c5be76295724af8c7db0a4773fd489157f",
        'det_target':
            "3d70bbee3ce24325110037adb015803a6c1084c15f8d77a4c33fc75ac2c9694f",
        'node_mass':
            "b538a05193111870f9870bc83f20b03d096ed58cbb49cf081626236a0f13f5d3",
        "warnings": (),
    },
    'drift(-1.0, 1.0)h0.05': {
        'x':
            "9ec8d05f843ad740946c9e5328f5d845bebcfc7b92c7843092653980866ce891",
        'u':
            "9e06d2300163da3cd0e643e3ebd153afd1df3ac3b268289b2783910d53f97dcb",
        'kind':
            "1cd4170997c3b7a6f350d63012164f6cd5f712b96368012f01d0e90153012841",
        'tau':
            "911960321b21ea73f0cf154333f8c46f2a12be9832bfe1dc04470bfa15a75285",
        'nbr_left':
            "5d02867c4fcc298bca28ab8ca437e646368ca7fd26184c71048bbb4fe570df1a",
        'nbr_right':
            "5d02867c4fcc298bca28ab8ca437e646368ca7fd26184c71048bbb4fe570df1a",
        'det_target':
            "6856748eecf65a98a2a0603288c21a184379e06bcde1fb100ced71c145fdd6ae",
        'node_mass':
            "7b4499c3cc6e82a9da3100028f52af7f8c1e9ee60e33010a108e401989782962",
        "warnings": (),
    },
    'drift(0.25, 0.75)h0.02': {
        'x':
            "ef329f2fc3d192564c39145e506a795f99f3c6d199bc96e6e5d1621b0ddf44de",
        'u':
            "6453bcca16d48a282629c7fbc17e5fa3911138c0238e568321684bfb8ba9176b",
        'kind':
            "7356bd9cd0c45d3087c05ff9d245267a7a7d7ceec03539ced8505f1a9ede418e",
        'tau':
            "c47cf05ce24d9dee00754fe15bac7efb8093d0294717fe652b63078b38472355",
        'nbr_left':
            "86ff85227f7cc42cc3293ebdeeb10d8660b51eb429dd1d6c999ddf14cb59db73",
        'nbr_right':
            "86ff85227f7cc42cc3293ebdeeb10d8660b51eb429dd1d6c999ddf14cb59db73",
        'det_target':
            "b718c0ddbfa21b03233630612e3a3d044c52d1285ce29c3f9d1b6353009d63f7",
        'node_mass':
            "46f531b7ea0428fbf2c3ca2b60e8dc33d6bbfa000e0fd1b489c5e39140a47006",
        "warnings": (),
    },
    'bessel-glue(-1.0, 0.0)h0.05': {
        'x':
            "e44b93a629b174b69b290eac40d80d61c6f0ba532445aff1c3cc1c88a1497971",
        'u':
            "6dc23d5d9f1dd317c6c0e464b93ed620472f83ff1bf46f87ef4cf33c63301f0d",
        'kind':
            "bbb1aef2d811bb88d56cbac845d2e9284f0d13fdfb8a050ef4b7d59dfe40a884",
        'tau':
            "4b9a9f18f4aeb83ac9b12df10ba4c3a7560bd7f4a695d749b2549cfc861e70b9",
        'nbr_left':
            "cdbd8b43426d8ffec11fcfb7d6122ae8b4b82965800af538504604054d28ccb8",
        'nbr_right':
            "df61ec1fa29ec6c99c9ee95af535293c9e43dc35fa292847b2f1445e2e36439c",
        'det_target':
            "fc351643198ac4ec4e78649c99ad06b4cd45b554005990cdc70e520b49dd9bf0",
        'node_mass':
            "6d6bf71623f4ce867ebe9d8e1e0f93769d60817da5a447ecd4c41d66064cc107",
        "warnings": (),
    },
    'bessel-glue(1.0, 3.0)h0.05': {
        'x':
            "d3a4d4de502d54df9df23079c79141126d84209f4196be6a151813b4a8612bed",
        'u':
            "e854762047b44c05d8a91ba1c9cb73897f17ddcbffd53c423d5d5fdf508ea1da",
        'kind':
            "c1ffb2711cec80bd2bc6d6f43f8d3c8e1745213a094969d50a5812d8884dba1f",
        'tau':
            "04633db654bd120b3b1aebfb01901a1a9d120df3ec791aa03a63a8e6c54026a9",
        'nbr_left':
            "ddae1d1ebae13b5c321c4fd2bea1f50aa74a6df4ba39f17d626071de7fe3fa0c",
        'nbr_right':
            "d84d0f467e58089da889cf06dd9fe8079dc5fe5920f5228e08dea2fd59740c9c",
        'det_target':
            "ba151f705f188cd9fcab95d6d24c0da135a4f334778b139684f38b8b4fbe728f",
        'node_mass':
            "1b3ef44ee29b13e2ac84483a225455ddcbc67d1ffea3791894d0ec2b795c4d4d",
        "warnings": (),
    },
    'exa1(-2.5, 2.5)h0.05': {
        'x':
            "8860b55f6b728294e041c91421f6ed51f14a351af9d8729cce6cb93f2eb98a19",
        'u':
            "4d2d8bd52fbd37d6a3569ed47808e775719456311e6fbe8923043cc3b936ab17",
        'kind':
            "8406158204185d67602e982c7acfce5d2093a1b79413949473c10f16ff8948dd",
        'tau':
            "72bc0de56bba6e5918577460442875aa7aa634cc5e19f1f2bfd0d85e095681e6",
        'nbr_left':
            "06d063082f6fca2b9eca2500ea773488fdf044e7352533d2493e5ed24c401250",
        'nbr_right':
            "24fc5594671fe0ca66de052cc59cfcdf61da0311c391b9552e2da6ac6fa92801",
        'det_target':
            "e9b03c6d26da39487f4461b7bb38791901b6c63e9776937c25021756d1adf72e",
        'node_mass':
            "df569ced383702a38ccd9688db8d13f9b72e2260940c35a3252a5d8516c6e171",
        "warnings": (),
    },
    'exa1(0.0, 1.0)h0.05': {
        'x':
            "2f4dedc7e6b05543c220e669b8d7eeaf77e2fe7f92d5ae8ca4c81e40483d16bf",
        'u':
            "8c2edf992151e6ced04f2fbb681dd0349813b43bda93a1a4885ec3a7f8815cdf",
        'kind':
            "bbb1aef2d811bb88d56cbac845d2e9284f0d13fdfb8a050ef4b7d59dfe40a884",
        'tau':
            "d6c16d81b295a42cc2bbd70b30a995b731db1123b5714ffc14724bed4039aae4",
        'nbr_left':
            "cdbd8b43426d8ffec11fcfb7d6122ae8b4b82965800af538504604054d28ccb8",
        'nbr_right':
            "df61ec1fa29ec6c99c9ee95af535293c9e43dc35fa292847b2f1445e2e36439c",
        'det_target':
            "fc351643198ac4ec4e78649c99ad06b4cd45b554005990cdc70e520b49dd9bf0",
        'node_mass':
            "234d987993d2059ed4b257f8e90a4bd449a025adba9cf135c5a5a19f2d49ece9",
        "warnings": (),
    },
    'exa1(-1.0, 0.0)h0.02': {
        'x':
            "bf19af50a0c3b21e2674768347b93c8f602989481637c6cdf23782a12242a3a0",
        'u':
            "dc143465f5b3c4782dad5a83771db40d1684efb248444146c440375194034031",
        'kind':
            "e2b978412f9b3c59336dd383b9d4cfa766933b701d275a07939e03c5d34272cc",
        'tau':
            "0b8ff276a531bb9163c9ea3a5b5f24d61d9c267cd5f3840888df6c5344c953dd",
        'nbr_left':
            "8e07b5a4482a4d8d7392541849efddb7c3a5919e80b61da4a9f6e03381b78ff1",
        'nbr_right':
            "99c8feedbef58045405a3af0f85911d93a83b7c5d0e5c585112ae711b50c7b52",
        'det_target':
            "86ff85227f7cc42cc3293ebdeeb10d8660b51eb429dd1d6c999ddf14cb59db73",
        'node_mass':
            "1982274e942432f50f98dc62b138e92af991ca304ed2f01dc584b44ade6f5925",
        "warnings": (),
    },
    'exa2(-1.0, 2.0)h0.05': {
        'x':
            "f7dccf66fb3bbfc30d5cc6a2d78d4aa30e134bd1bb4040b10591f65a7e344f4a",
        'u':
            "df4b22b81b15985a4e77d28f5c4f12a4ae242e9e68eb7f6b34f531c174a02043",
        'kind':
            "ddd237753bac581da91a17163233d8aea8d065c65d65d1b94d808d9e76b6fbae",
        'tau':
            "f2579962c120bfe9e136c773cf32e746aa918074b9fe6a710ce8886ffbd7459a",
        'nbr_left':
            "1910c62ad78c7e4d1f77c97634b0a30b5046ea9f0159cb8274bb18661c92e4b3",
        'nbr_right':
            "0716e6e8e6903b76cd2201f296717d21e924ea98b05781ce6eeead95bf3ac8b1",
        'det_target':
            "d4aeb32717fdf59836f8b090ed470955826756e10de9db193f79fbe5794f110f",
        'node_mass':
            "aa10efb6e8a7f9022475e86b300ba26c2e3095c17e83515bc3f57388f0f006e2",
        "warnings": (),
    },
    'exa2(-inf, 1.0)h0.05': {
        'x':
            "0a54eae20b95c28cf2248131de40dd2809e11d321904a0db66bc9833e2661a2f",
        'u':
            "b454a570f92fec2c46303875d549827b33c69d3acfc66a6d0b5431ece935df7f",
        'kind':
            "a00d9b843d224d5ed3730f8827b1e878965dfdb95657d67a1d40239ef23fe560",
        'tau':
            "519a8ccd26baf0b09814937eab84910875f0f6d7cbcb910c5853dca1a3af076f",
        'nbr_left':
            "cdbd8b43426d8ffec11fcfb7d6122ae8b4b82965800af538504604054d28ccb8",
        'nbr_right':
            "df61ec1fa29ec6c99c9ee95af535293c9e43dc35fa292847b2f1445e2e36439c",
        'det_target':
            "fc351643198ac4ec4e78649c99ad06b4cd45b554005990cdc70e520b49dd9bf0",
        'node_mass':
            "b663ee070b4522674a2588be74270d7750eb814264178055b0950293483eea35",
        "warnings": (),
    },
    'exa2(0.0, 1.0)h0.05': {
        'x':
            "2f4dedc7e6b05543c220e669b8d7eeaf77e2fe7f92d5ae8ca4c81e40483d16bf",
        'u':
            "8c2edf992151e6ced04f2fbb681dd0349813b43bda93a1a4885ec3a7f8815cdf",
        'kind':
            "bbb1aef2d811bb88d56cbac845d2e9284f0d13fdfb8a050ef4b7d59dfe40a884",
        'tau':
            "d6c16d81b295a42cc2bbd70b30a995b731db1123b5714ffc14724bed4039aae4",
        'nbr_left':
            "cdbd8b43426d8ffec11fcfb7d6122ae8b4b82965800af538504604054d28ccb8",
        'nbr_right':
            "df61ec1fa29ec6c99c9ee95af535293c9e43dc35fa292847b2f1445e2e36439c",
        'det_target':
            "fc351643198ac4ec4e78649c99ad06b4cd45b554005990cdc70e520b49dd9bf0",
        'node_mass':
            "234d987993d2059ed4b257f8e90a4bd449a025adba9cf135c5a5a19f2d49ece9",
        "warnings": (),
    },
    'absorb-reflect(-0.5, 1.5)h0.05': {
        'x':
            "a174a2cdcc562e80d40b266f9a21b79a661b890b02093ed6b6a7b120b26e9604",
        'u':
            "f8e23f961a6b9bf86abf5b31d81d668e7b88e0f959c9fcd515ef772599936e8a",
        'kind':
            "23e9ec3bc843ce25adedb6680a92723152e88cdfa54e73931615cece0e349249",
        'tau':
            "5b0e13cf8a9d49665523308dccb9c24b40d59403a7c05b17044015b229b692c3",
        'nbr_left':
            "1910c62ad78c7e4d1f77c97634b0a30b5046ea9f0159cb8274bb18661c92e4b3",
        'nbr_right':
            "0716e6e8e6903b76cd2201f296717d21e924ea98b05781ce6eeead95bf3ac8b1",
        'det_target':
            "5d1f1686c403201a850d76f2b4e99437932924a25e47ac305e82f09f031ee4c3",
        'node_mass':
            "c576f860c9f04534e2d1256715e8216ba78d58ffee79d4af525fb7fd3ebecfbd",
        "warnings": (),
    },
    'absorb-reflect(-0.5, 1.0)h0.05': {
        'x':
            "ac1eee940e4b655b719d665388e39a3f4b6a203b067c3b46845c4317a74eaede",
        'u':
            "df4b22b81b15985a4e77d28f5c4f12a4ae242e9e68eb7f6b34f531c174a02043",
        'kind':
            "ddd237753bac581da91a17163233d8aea8d065c65d65d1b94d808d9e76b6fbae",
        'tau':
            "c6fbbdd981b0caf0d743cdc58f1a35b448ea04cc7cb5d3370ccf50983fb6f243",
        'nbr_left':
            "1910c62ad78c7e4d1f77c97634b0a30b5046ea9f0159cb8274bb18661c92e4b3",
        'nbr_right':
            "0716e6e8e6903b76cd2201f296717d21e924ea98b05781ce6eeead95bf3ac8b1",
        'det_target':
            "d4aeb32717fdf59836f8b090ed470955826756e10de9db193f79fbe5794f110f",
        'node_mass':
            "453540b3a902a2cfaf9d0e59ee290a948cd98f35e9f61ea00c665c867e067407",
        "warnings": (),
    },
    'absorb-reflect(-inf, inf)h0.02': {
        'x':
            "0d88f9e0f4a069f56b1277e612e03629e55df25661591c3795199e5e7352478d",
        'u':
            "277290ea3520bcd327b4adb4cebb77afde9a6a0d538c14066d23623364deae30",
        'kind':
            "1c01bcde832e964cad508f3e3af9f39ac873068a7400b86ee5b7728ea920a71f",
        'tau':
            "15fda8e71a9866c7f7cb480c6b4f0184bb1e788417387dfcbdd29268001006b8",
        'nbr_left':
            "f7a4a8be9fc8b21c66b71d4d5f155781229ae491244b2eb0a88b7304a0cac4c3",
        'nbr_right':
            "e2c55ee3647b61bff7ce2fb161242e06af972790c912e393a3a6faf155df1789",
        'det_target':
            "688b6761c2d98c5bdc2b1a77e687e15472a685f996fb67286755fa9ab60b9281",
        'node_mass':
            "542027f53f899b19822a7814df56890112e674c266c3b811c0b2fad17343280f",
        "warnings": (),
    },
    'split-bm(0.25, 0.75)h0.05': {
        'x':
            "b878d8d93937fd429630d413d29371a3a712e1a3ce63eefe37bbf03f3893eae4",
        'u':
            "232175e28405f68409b0ca62f731a40319feffa532a9ff7593933e6608e86d80",
        'kind':
            "ef27726ffbd3a9b49f563f7e9363085d7fe78d918eeff357308b98a536ee660d",
        'tau':
            "28c3b70f398bffaa8ab039105898c6ea7f9394299b4022baba9323f58f3d732a",
        'nbr_left':
            "71fa17068a68e1af6eb26ed6c64047d53d186a2695682631d4c028a76252935b",
        'nbr_right':
            "d36a786b12c8220447f14f85a170d522cd7748bb45126aa311047ada51705644",
        'det_target':
            "23b08da305801e86e6ab7dd7d5c7d7fb8ad2a6218aa08f42daef1652fe65e872",
        'node_mass':
            "574523c2b051a5445e0eada41c5970c210e87c0c6ea7b9ddde47db3f0602f270",
        "warnings": (),
    },
    'split-bm(1.0, 3.0)h0.02': {
        'x':
            "4d20262e6997c503c1a2441c671371da6cff6163e3a6d13d0b77d67a2595b418",
        'u':
            "7768f025073e3149c656a71fcb3d09d8c451416ec24ec6a0b4be6b7908a6bdac",
        'kind':
            "acf0580369ada94e6c7f292dda903437f973279074d53e28df3a1b7967f26346",
        'tau':
            "0f09a42ee134bf976392905920f72341f8df784f12c809d68c9160d75d29f913",
        'nbr_left':
            "64f5a735182a91ca92d499e02fd28a16c2bc50ee5887e99711a4d985b6d4338a",
        'nbr_right':
            "69c427e9d3f85d902395e4e1138d8e26990013efccd434a15d090cf6b23e8567",
        'det_target':
            "f493acc6d716b7843d52ecef8643ef79bac85f84dd8851de91627c38dc4f7e41",
        'node_mass':
            "d81911fe1b72a27707dabc46f7a08e9c262a1faf209a3c87ed995525f82ba8b4",
        "warnings": (),
    },
    'nonradon(0.5, inf)h0.05': {
        'x':
            "6bb9ff43ab37a876e152fdec354e1967e248180eed03785fc8b26f23c3704fb8",
        'u':
            "d484fd2f6835696a89216b172b2af719d6ae3f0b76f76aa5ec4fa4ed38a5a20d",
        'kind':
            "a6220a191e16e9716b8b188bcd74935d4bfb69bc38277f059f3396c1cdf39cdd",
        'tau':
            "45fb20047bb83d1f96cd56d892234a70a717c74de27cbfaf5b9b3f38fbcaae0f",
        'nbr_left':
            "7036d242537ab41686e2832f57e512c9ca779d245014fb29e1e148ee41f86251",
        'nbr_right':
            "9fecb06693b1682c5903be54559c786db8abdf4a81c6fd85ee9cd188127c09de",
        'det_target':
            "5d02867c4fcc298bca28ab8ca437e646368ca7fd26184c71048bbb4fe570df1a",
        'node_mass':
            "ecd9ee55b9b1dac47039a7df28a0373b6ce8684b594ec35b78ee76edf1d6f5b0",
        "warnings": (),
    },
    'nonradon(0.25, 0.75)h0.05': {
        'x':
            "b878d8d93937fd429630d413d29371a3a712e1a3ce63eefe37bbf03f3893eae4",
        'u':
            "232175e28405f68409b0ca62f731a40319feffa532a9ff7593933e6608e86d80",
        'kind':
            "ef27726ffbd3a9b49f563f7e9363085d7fe78d918eeff357308b98a536ee660d",
        'tau':
            "946e9f25a0c5a52b022437d7dc4fbd549366df8fcc03830a5ec60a54bba6560f",
        'nbr_left':
            "71fa17068a68e1af6eb26ed6c64047d53d186a2695682631d4c028a76252935b",
        'nbr_right':
            "d36a786b12c8220447f14f85a170d522cd7748bb45126aa311047ada51705644",
        'det_target':
            "23b08da305801e86e6ab7dd7d5c7d7fb8ad2a6218aa08f42daef1652fe65e872",
        'node_mass':
            "a60a55e08fb009f6307df1f18404b66117da7d55390aa088b8336153bd06c538",
        "warnings": (),
    },
    'cubic(0.0, 1.0)h0.02': {
        'x':
            "651a83efb8c3007252aae3a93b98b7c05f165df5c6a57cf248f2c1fada678f17",
        'u':
            "8e702fa22f34dd9953405248f3ef27a96fbca906b1a8c551133ce697991b42d3",
        'kind':
            "3236d816ff73bea709d88fb2cae3818ab728eaa93b6f9f22a9806297b0f5876a",
        'tau':
            "9e4968441f9e95acf735f1da44b9e0a735a7d0492dfac6c3e1f78155031b4791",
        'nbr_left':
            "f7a4a8be9fc8b21c66b71d4d5f155781229ae491244b2eb0a88b7304a0cac4c3",
        'nbr_right':
            "e2c55ee3647b61bff7ce2fb161242e06af972790c912e393a3a6faf155df1789",
        'det_target':
            "90355c2d0a613511985dfe3953a0ac8c28aaf6a4de822db3f2aeae839a584bd9",
        'node_mass':
            "20bf19a3ec6ae594891379ef7769a083991229c814077973f83720c66aeabf8d",
        "warnings": (),
    },
    'cubic(-1.0, 1.0)h0.05': {
        'x':
            "99f876210e50c09daeb17392289b3913918f6fa849d99c739faab50f1cdca20e",
        'u':
            "0fadc7ee6264c50bfe9e81b4f2ca9785d515b965ac94a4115e12b936e4c98538",
        'kind':
            "cfd43dd58787f0fc74c12f37c5ca9a92867840458270daa9d39c7804220e89d0",
        'tau':
            "7bc5908a93dc331de07e3bf21139f030547ffb284a3e8f32655ec88ee8d9ec5b",
        'nbr_left':
            "7036d242537ab41686e2832f57e512c9ca779d245014fb29e1e148ee41f86251",
        'nbr_right':
            "9fecb06693b1682c5903be54559c786db8abdf4a81c6fd85ee9cd188127c09de",
        'det_target':
            "5d02867c4fcc298bca28ab8ca437e646368ca7fd26184c71048bbb4fe570df1a",
        'node_mass':
            "73356f1ae15bc681df0613a2432fa7b52ef4c5d52e15889c5626d9b5d18e357d",
        "warnings": (),
    },
    'atom(-1.0, 2.0)h0.05': {
        'x':
            "da9cb34a0cd19ed642d94744e72828663491ff47db5e406dfbf953a0c4f374bd",
        'u':
            "6c8fc228dc6f11c85435a3c4d6fd5801504063c4288fb5ad41de8217abe9b887",
        'kind':
            "b0da31a891102fd90782d60a9909a28e96dab2a6ecbcc4bfb744640434e6a3bd",
        'tau':
            "58a8647b7f27c407950c265f75bcb0242dcf7bf5ad5af9b136836d7ab928986a",
        'nbr_left':
            "c6723fa81fd58c3b762177f3bfeaa8c1af173b46ceefbe9be5e109681319c998",
        'nbr_right':
            "506308c07c83db6060f6dee1611ba1f538ca0960ff4fb463048b334c20f4b5ee",
        'det_target':
            "7c4ec383e5428cffb716e08d3f5e0db2488bb550bc6a49dbe6b061dd839d62e6",
        'node_mass':
            "48d7d81b909c34e329471a144b9159f3fe3c07dd10aa89aac785e4412e04e0b7",
        "warnings": (),
    },
    'atom(0.0, 1.0)h0.05': {
        'x':
            "19c248781bf8b8099f9e5095de5b095b11f75b8776a712d5b7a80acf08eee236",
        'u':
            "329680808a5f366043d4bf1cfd1f999c5f60b3565afc818bea7f89414dafcbfe",
        'kind':
            "cfd43dd58787f0fc74c12f37c5ca9a92867840458270daa9d39c7804220e89d0",
        'tau':
            "5d94896689010df20ccbd40cecb66c134e28087504044cb7741d2b819a9415fc",
        'nbr_left':
            "7036d242537ab41686e2832f57e512c9ca779d245014fb29e1e148ee41f86251",
        'nbr_right':
            "9fecb06693b1682c5903be54559c786db8abdf4a81c6fd85ee9cd188127c09de",
        'det_target':
            "5d02867c4fcc298bca28ab8ca437e646368ca7fd26184c71048bbb4fe570df1a",
        'node_mass':
            "8b97c2a6a256ba327a398200fb3c61dfa802e6bb2d24daf83299b07a4d2cf502",
        "warnings": (),
    },
    'rough(0.0, 1.0)h0.05': {
        'x':
            "3dfafb483d127c915d8522752b4fa3de9141eab0637c9ba7b62bd92674a5fa69",
        'u':
            "b9e46285f80b85fe229270ebbc86868a5d5bcc6eb16f3ae02fa37c364ea8db11",
        'kind':
            "17c8863e9cc527d528b9c8b53060b78d5a47939a21afe5edc59154369074600c",
        'tau':
            "74a04f947120e2fe81cae4679068dd9a88b6726988376a8e48fe47c3adda8064",
        'nbr_left':
            "1910c62ad78c7e4d1f77c97634b0a30b5046ea9f0159cb8274bb18661c92e4b3",
        'nbr_right':
            "0716e6e8e6903b76cd2201f296717d21e924ea98b05781ce6eeead95bf3ac8b1",
        'det_target':
            "d4aeb32717fdf59836f8b090ed470955826756e10de9db193f79fbe5794f110f",
        'node_mass':
            "350a0eb7cf429afd22d2c40e27cf0d9fdcd0704e59e1acd303e6608be2304854",
        "warnings": ('piece 0: holding-time quadrature error estimate 4.55e-01 (GK21 Kronrod-Gauss, relative) exceeds 1e-6; the speed density may be rough at this h',),
    },
    'segment(-1.0, 2.0)h0.05': {
        'x':
            "1b9aad65fe141d6bc6ab9355103cf4e9b8b0d4f75db8a7bd0dd1dda4cd4a9c24",
        'u':
            "4f024c90fe175ab12854ded6a0358c581ecd8895023d23b1038f81c215b1550c",
        'kind':
            "fca8ef7ceb561c106d8ea9982bd59661fe905ff0c107fdf52c5ffe17c17621ed",
        'tau':
            "bde8a660d6ca2203a181e8bfce20c56cf721906a094d88ba401710022eedeaf6",
        'nbr_left':
            "24b57d912e39e278fe4f85cec56bde5b4e1fd7b36e639e397d60b8c1f9f562a7",
        'nbr_right':
            "40de45211f827f6fb7889b2b13b987102b07279ac65ae5c057528a12f65adbe7",
        'det_target':
            "c126fb10a36fd23740cce626fa9c5f3fa57dc288a37f671654e194e549c2b0a2",
        'node_mass':
            "1d040fa5331fb28b4515565c12475e2aad8444c85cc3d967fc0d66b52d9c5ce4",
        "warnings": (),
    },
    'segment(0.5, 2.0)h0.05': {
        'x':
            "632a98e8e63f9e6f6029f9bfce306940a9ca367cabf08f55399b8b22f5fff760",
        'u':
            "0f7c7c99609ff09e6864e041bc6a21dbd2feb010758df2f7ada47732a589fd8d",
        'kind':
            "4bb6b420befdefa409715065931d9f3d89782b3e1a51f44441e91636edb5c76c",
        'tau':
            "080cce88961085e754c526eea2ced1add1eaa98a3c1180b720286f8b20c09230",
        'nbr_left':
            "e6d33e78e5989bc0461d84e3c612fae64b8922271c34fd57a9b38bad54aba493",
        'nbr_right':
            "b3ff39db87ac3b3befe1d6b77a219f72fb94efef400097c16524ead686dbcdc2",
        'det_target':
            "aaee4a51c98d4dcabe3e2ac825dff6550373e300d275d8af825aef9e1a542e37",
        'node_mass':
            "8da2b287ed0143d55decc7e9f6edb9835a7d598eb6740d37910e820cc3ec121d",
        "warnings": (),
    },
    'segment(-1.0, 0.5)h0.05': {
        'x':
            "628d5d58ead065b50a9daea7e48e1ccf65c45be9f0435dbeba166c8abe43b503",
        'u':
            "b3b2a7624a9005b20b00dde3abc90a7bedf414d1a2a0846f21d97b11223775c0",
        'kind':
            "4d5a641d9b9273b01d5e063b71e8975a79a7a2b0d97c9f1dc0bb805ee1eee3c0",
        'tau':
            "a94ddd043cf89fd30a3bc6df8a4c76e6407ea1bb59d59e8d13d9520c5b012c70",
        'nbr_left':
            "ed7909d21f98b3fab876813d10d48811fadcdce02d3c2272afbcf4f754412042",
        'nbr_right':
            "61019fb9326946cdbcdf6cbc6830699a03487332cc4a63f2a65fcfa9162abcdc",
        'det_target':
            "ea1d7cb252922c7c2ad2dfb4b708f597d945ef678e04b69865e44ae86f06d9b6",
        'node_mass':
            "55f1ad1d78489f2fbaf5c2bd6460615f3ddecc94de6754d9c1c6b1fa5c915942",
        "warnings": (),
    },
    'segment(0.0, 1.0)h0.05': {
        'x':
            "82d5d8fde3d9f42fd6fe48372caf71245eae9f81763dc09871f742a12b6946d2",
        'u':
            "d9d6a278a3e051c83ea8276181e2ca04dd0561009f9fa87375ef5184f1049064",
        'kind':
            "780b520d1cc7712289fbfc74e82dc3cb649f4de398cabc1633dd55add2e073da",
        'tau':
            "c2398afe9887e4318d2323bf76a85f1e249fa5b87f87316bd475c922b27bd488",
        'nbr_left':
            "d4aeb32717fdf59836f8b090ed470955826756e10de9db193f79fbe5794f110f",
        'nbr_right':
            "d4aeb32717fdf59836f8b090ed470955826756e10de9db193f79fbe5794f110f",
        'det_target':
            "0d0f946acad886eaa728232d985f06bcf8b641074ff27877acf34a99b48313cf",
        'node_mass':
            "e3c2af35d1dfc500e16f826a071cc311bf55003a3de77de7ea3376c6b6fa2857",
        "warnings": (),
    },
    'segment-left(-2.0, 1.0)h0.05': {
        'x':
            "30d20120c489243152ddf2457addc40410d56fd6cc5adeca380cdb5d480c3f38",
        'u':
            "682fededcace27854823b102b2f21b844e6cbf0e174a752bb0f1a38880da8774",
        'kind':
            "fca8ef7ceb561c106d8ea9982bd59661fe905ff0c107fdf52c5ffe17c17621ed",
        'tau':
            "5a1ce98d3e0cb4ca5ca8bcd2a5bb2b59e5d69f82301bc2908cd4cff3c361eb54",
        'nbr_left':
            "24b57d912e39e278fe4f85cec56bde5b4e1fd7b36e639e397d60b8c1f9f562a7",
        'nbr_right':
            "40de45211f827f6fb7889b2b13b987102b07279ac65ae5c057528a12f65adbe7",
        'det_target':
            "484c892353fcf076dd5856a8ce6342514e110b569eff3e8aa68e50c1acbcfb6f",
        'node_mass':
            "3f877d96813ee08ca7020dff4212ddec71db9e84d27cf583f234060a7f3194a3",
        "warnings": (),
    },
    'segment-left(-0.5, 1.0)h0.05': {
        'x':
            "a14eb8e86109d5d0452526d0f4a6e9a004714d3b493790498e1cd3bb227557fc",
        'u':
            "cbf16aaad0ab2c16b46748c19aa5a7cafc5cfb96684703fd0d91b490a4dd6d56",
        'kind':
            "f4c9060f1e0433280e96b10e4318d5d9843049e6a2e1aaf8a7e54c082f762980",
        'tau':
            "e67dd192685e316f67310b46e8a06c61c310554fdba3d2065f8c484ed555aae5",
        'nbr_left':
            "e6d33e78e5989bc0461d84e3c612fae64b8922271c34fd57a9b38bad54aba493",
        'nbr_right':
            "b3ff39db87ac3b3befe1d6b77a219f72fb94efef400097c16524ead686dbcdc2",
        'det_target':
            "73d362f71bfc220281aa70fdffcdb35aa4f481c34cc600792dd4d2d1ce09ceb2",
        'node_mass':
            "d8ac8e71185e2806ab5e78288bed894243cee416b92ec101302b4dce7d0640c5",
        "warnings": (),
    },
    'segment-left(-2.0, -0.5)h0.05': {
        'x':
            "cb903bd11f7da3d78358afb149ad5efc818c5050cce22d99de9b05842a3d35b0",
        'u':
            "b03bc681bc6f69812420f95d40877f267462ff64d41c0b584524ebb8ef38dab9",
        'kind':
            "66d814aba6bfced2fb3d2b1000b00a7871ea7f196c071b9dc9ec65c0464a093b",
        'tau':
            "572c3a3f006a19ff20b57baf2784e275dcd56b0ccaa02f845f7ba3784cecb2a5",
        'nbr_left':
            "ed7909d21f98b3fab876813d10d48811fadcdce02d3c2272afbcf4f754412042",
        'nbr_right':
            "61019fb9326946cdbcdf6cbc6830699a03487332cc4a63f2a65fcfa9162abcdc",
        'det_target':
            "9cce2da7c1be55b4b4c45e2847bfe5acfa23066fac599e400841cbf1e0768801",
        'node_mass':
            "fab86706a5c5053636aa5516e1e02405ede24bf0c75037c885a09c9bc4ddf220",
        "warnings": (),
    },
}


@pytest.mark.parametrize("name, window, h", BUILDS,
                         ids=[_case_id(*c) for c in BUILDS])
def test_chain_arrays_match_recorded_digests(name, window, h):
    assert chain_digests(name, window, h) == \
        DIGESTS[_case_id(name, window, h)]


BALANCE = BUILDS + [("cubic", (0.0, 1.0), h) for h in (0.05, 0.025, 0.0125)]


@pytest.mark.parametrize("name, window, h", BALANCE,
                         ids=[_case_id(*c) for c in BALANCE])
def test_chain_is_reversible_for_its_node_mass(name, window, h):
    """Detailed balance, mass_i q_ij = mass_j q_ji to 1e-12 relative, with
    q the jump probability over the mean holding time, between every walk
    node and each neighbour that moves back to it: a walk node, or a shunt
    point's entry node whose move leads to it."""
    ch = build_chain(_spec(name), window, h)
    walk, det = simulate.WALK, simulate.DET

    def flux(i, j):
        p = 1.0 if ch.kind[i] == det else 0.5
        return ch.node_mass[i] * p / ch.tau[i]

    pairs = [(int(i), int(j)) for i in np.flatnonzero(ch.kind == walk)
             for j in (ch.nbr_left[i], ch.nbr_right[i])
             if ch.kind[j] == walk
             or (ch.kind[j] == det and ch.det_target[j] == i)]
    entries = [(int(ch.det_target[d]), int(d))
               for d in np.flatnonzero(ch.kind == det)
               if ch.kind[ch.det_target[d]] == walk]
    assert set(entries) <= set(pairs)
    assert pairs or not (ch.kind == walk).any()
    for i, j in pairs:
        there, back = flux(i, j), flux(j, i)
        assert back > 0 and abs(there - back) <= 1e-12 * back, (i, j)


@pytest.mark.parametrize("name, window, h", BALANCE,
                         ids=[_case_id(*c) for c in BALANCE])
def test_walk_nodes_are_fair_coins_by_their_cells(name, window, h):
    """A walk node steps right with probability 1/2 because its two cells
    are equal in scale, here to 1e-12 relative: the grid of each regular
    piece is uniform in scale.  The right probability these cells give,
    du_k-1 / (du_k-1 + du_k), was within 8.9e-15 of 1/2 on these builds.
    A singular point's node keeps the scale value of one of its two
    pieces, so the other piece's grid ends on its own ``scale_limit``."""
    spec = _spec(name)
    ch = build_chain(spec, window, h)
    profile = boundary_profile(spec)
    points = (simulate.DET, simulate.TRAP_NODE)

    def cell(i, j, side):
        if ch.kind[j] in points:
            u_end = profile[(spec.piece_at(ch.x[i])[0], side)].scale_limit
        else:
            u_end = ch.u[j]
        return abs(u_end - ch.u[i])

    for i in np.flatnonzero(ch.kind == simulate.WALK):
        left = cell(i, ch.nbr_left[i], "a")
        right = cell(i, ch.nbr_right[i], "b")
        assert left > 0 and abs(left - right) <= 1e-12 * left, i


@pytest.mark.parametrize("name, window, h, message", REFUSALS,
                         ids=[_case_id(*c[:3]) for c in REFUSALS])
def test_refusals_keep_their_messages(name, window, h, message):
    with pytest.raises(ChainBuildError) as exc:
        build_chain(_spec(name), window, h)
    assert str(exc.value) == message


@pytest.mark.parametrize("mirror, window, end", [
    (False, (0.5, INF), "+inf"),
    (True, (-INF, -0.5), "-inf"),
])
def test_divergent_holding_integral_names_its_end(monkeypatch, mirror,
                                                  window, end):
    # nonradon's scale is bounded toward +inf and the end is approachable,
    # so only a holding integral that fails to settle can refuse here
    doc = example_document("nonradon")
    spec = parse_spec(mirrored_doc(doc) if mirror else doc)
    monkeypatch.setattr(
        chain, "improper_integral",
        lambda *args: IntegralResult(INFINITE, math.inf, 3, "forced"))
    with pytest.raises(ChainBuildError) as exc:
        build_chain(spec, window, 0.05)
    assert str(exc.value) == (f"holding integral toward {end} does not "
                              f"converge; provide a finite window")
