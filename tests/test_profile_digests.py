"""Bit-identity of the endpoint analysis on every built-in example.

The sha256 digests below were recorded from ``boundary_profile`` before
the dyadic shells of ``improper_integral`` and the probes of
``scale_limit`` were evaluated in blocks.  Each digest covers every
field of every ``EndpointAnalysis`` of one example at one tolerance, with
floats written as ``float.hex``, so any change in a scale limit, a
boundary integral or a verdict shows up here.
"""

import hashlib
from dataclasses import astuple

import pytest

from shuntline import boundary_profile, get_example
from shuntline.examples import list_examples

TOLS = (1e-6, 1e-8)

DIGESTS = {
    ('bm', 1e-06):
        "d79a4c0f104aac0965f955e14e53d9dda572b6726e17d942628fd7aa9026233d",
    ('bm', 1e-08):
        "d79a4c0f104aac0965f955e14e53d9dda572b6726e17d942628fd7aa9026233d",
    ('drift', 1e-06):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ('drift', 1e-08):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ('bessel-glue', 1e-06):
        "4c24f5637d70845ee748bc3233eaeb0933a9aa14963b7889e36dc0f0e3f66b11",
    ('bessel-glue', 1e-08):
        "c1b19f8869e877744418dc3c29f264a759932cde6a501818c3ca3b39f68f6efd",
    ('exa1', 1e-06):
        "ae0ec071f10c2e64973a8534d2db638083d38d3a6d23a61101b1743fbe2f8603",
    ('exa1', 1e-08):
        "07adad3610c414e729af8cb36752d5e33cbf2b23bb8940407117c46c9eff4949",
    ('exa2', 1e-06):
        "16a0b41655b233da9509e894403f1011d15647f233ad9dcc5c8429ce97fa36d3",
    ('exa2', 1e-08):
        "8bba3e4a2598f5ddd9ea588b5e7e27a802d265144b79616c68a20600e09eb059",
    ('absorb-reflect', 1e-06):
        "2018f9d1259591477defbbbba63e1fbd5f864a5c7f244ca8aaa151fcd1f28d62",
    ('absorb-reflect', 1e-08):
        "aaf35f9d0a69f03172480994b34a89c3d29ed3bd9b511aab4316e5ca36c84ed0",
    ('split-bm', 1e-06):
        "04c6e42aaf1832df68a792d4e38a0319fc3698856fb16204500755489041ce13",
    ('split-bm', 1e-08):
        "04c6e42aaf1832df68a792d4e38a0319fc3698856fb16204500755489041ce13",
    ('nonradon', 1e-06):
        "edd4b678abafd19cdd45ada99f1a22df9a18245d877bfce7808bfe456db9f905",
    ('nonradon', 1e-08):
        "6155878aeaa0082edf07e3c9a9679faa7ab68790bab2f915669bd13695167fcf",
}


def _field(v):
    return v.hex() if isinstance(v, float) else repr(v)


def profile_digest(name, rel_tol):
    profile = boundary_profile(get_example(name), rel_tol)
    lines = [" ".join(_field(v) for v in (*key, *astuple(ana)))
             for key, ana in sorted(profile.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_every_built_in_is_pinned():
    assert sorted(DIGESTS) == sorted((n, t) for n in list_examples()
                                     for t in TOLS)


@pytest.mark.parametrize("name, rel_tol", sorted(DIGESTS))
def test_profile_digest(name, rel_tol):
    assert profile_digest(name, rel_tol) == DIGESTS[(name, rel_tol)]
