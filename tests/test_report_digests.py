"""Bit-identity of the analysis reports of the command line.

The sha256 digests below were recorded before the analysis stages (the
boundary profile, the graph, the Hunt verdict and the symmetry verdict)
shared one memo per ``(spec, rel_tol)``.  Each digest covers the stdout
and the stderr of one in-process ``main`` call, and its exit code is kept
next to it: every analysis subcommand on every built-in example at two
tolerances, and the borderline spec, whose profile every subcommand
refuses with exit 2.
"""

import contextlib
import hashlib
import io
import json

import pytest

from shuntline.cli import main
from shuntline.examples import list_examples

COMMANDS = ("classify", "check-hunt", "check-symmetry", "measure", "dirichlet")
TOLS = ("1e-6", "1e-8")
BORDERLINE = "borderline"

# a measure needs a process symmetrizable after killing, the whole-line
# form checks one symmetrizable without killing; both refuse with exit 1
NOT_KILLED = ("bessel-glue", "drift", "exa1")
NOT_FULL = NOT_KILLED + ("absorb-reflect", "exa2")

# (example, command, rel_tol) -> (exit code, sha256 of stdout NUL stderr)
DIGESTS = {
    ("absorb-reflect", "check-hunt", "1e-6"): (
        0, "de3a1a49686f27f367b20164dee00c7ce8fb1a3bb6fea858f6bed384ca50e6e4"),
    ("absorb-reflect", "check-hunt", "1e-8"): (
        0, "de3a1a49686f27f367b20164dee00c7ce8fb1a3bb6fea858f6bed384ca50e6e4"),
    ("absorb-reflect", "check-symmetry", "1e-6"): (
        0, "e6d91b65dcbd5d333ba6a6bd893e714056680b0929617ce49551af391f88b756"),
    ("absorb-reflect", "check-symmetry", "1e-8"): (
        0, "e6d91b65dcbd5d333ba6a6bd893e714056680b0929617ce49551af391f88b756"),
    ("absorb-reflect", "classify", "1e-6"): (
        0, "012cc70b065ae23659943bc84f7ff3d7e95c31375ec2f5e6653aaef496677bc0"),
    ("absorb-reflect", "classify", "1e-8"): (
        0, "b36a92c4a96334449182680c1dacb37c30b78d85d3a33294748ae637b91d1a98"),
    ("absorb-reflect", "dirichlet", "1e-6"): (
        1, "01c5505300b7b2b1a8caddcef32ac8644534e3ffc8ddab66c46206b74e2e3ed2"),
    ("absorb-reflect", "dirichlet", "1e-8"): (
        1, "01c5505300b7b2b1a8caddcef32ac8644534e3ffc8ddab66c46206b74e2e3ed2"),
    ("absorb-reflect", "measure", "1e-6"): (
        0, "340d6a29938ecf08f33fb805f3616116acddc4a49999a302a71933a4441bde1e"),
    ("absorb-reflect", "measure", "1e-8"): (
        0, "340d6a29938ecf08f33fb805f3616116acddc4a49999a302a71933a4441bde1e"),
    ("bessel-glue", "check-hunt", "1e-6"): (
        0, "8f1203b83d3f98d79114a2cdeeb488eb01dc38892f7e9efeb19af031d78e930e"),
    ("bessel-glue", "check-hunt", "1e-8"): (
        0, "8f1203b83d3f98d79114a2cdeeb488eb01dc38892f7e9efeb19af031d78e930e"),
    ("bessel-glue", "check-symmetry", "1e-6"): (
        0, "34380851d853d1aa5a503405557f51cb2ce699dba030cc3b0e250a16a653c531"),
    ("bessel-glue", "check-symmetry", "1e-8"): (
        0, "34380851d853d1aa5a503405557f51cb2ce699dba030cc3b0e250a16a653c531"),
    ("bessel-glue", "classify", "1e-6"): (
        0, "cee0952ab56fa1f5b2c463c13ffdc94cf501ebd7575c621bb2f7462fbe17c621"),
    ("bessel-glue", "classify", "1e-8"): (
        0, "c3b00aa2451a4e690371bc519d79afac7236b512e0c3fe4768faf0dab3800093"),
    ("bessel-glue", "dirichlet", "1e-6"): (
        1, "10d4887b35c4bc3bf582a0558f07a23bceca97071983176311d967f619410ef1"),
    ("bessel-glue", "dirichlet", "1e-8"): (
        1, "10d4887b35c4bc3bf582a0558f07a23bceca97071983176311d967f619410ef1"),
    ("bessel-glue", "measure", "1e-6"): (
        1, "e0f13ec33293c0b8cbe4db3bbbf469e0988f0f49624b93246076ed04615a05df"),
    ("bessel-glue", "measure", "1e-8"): (
        1, "e0f13ec33293c0b8cbe4db3bbbf469e0988f0f49624b93246076ed04615a05df"),
    ("bm", "check-hunt", "1e-6"): (
        0, "cd0efbb240779fb4c7416e88add5bc78a0e4f138abb48f3d7c90c73da3761f00"),
    ("bm", "check-hunt", "1e-8"): (
        0, "cd0efbb240779fb4c7416e88add5bc78a0e4f138abb48f3d7c90c73da3761f00"),
    ("bm", "check-symmetry", "1e-6"): (
        0, "53e5935feac5ba0e53a1661b256f268d17ea85bafa545faf5c7ec9b540df75c8"),
    ("bm", "check-symmetry", "1e-8"): (
        0, "53e5935feac5ba0e53a1661b256f268d17ea85bafa545faf5c7ec9b540df75c8"),
    ("bm", "classify", "1e-6"): (
        0, "ea01170c5b9e108b6afaa7066f371bf65187162659ea04635481726a7dff5860"),
    ("bm", "classify", "1e-8"): (
        0, "ea01170c5b9e108b6afaa7066f371bf65187162659ea04635481726a7dff5860"),
    ("bm", "dirichlet", "1e-6"): (
        0, "9f1c501195fb7acd0076f8bcab674640eb33eff3ca5687ba749266bc9dea762d"),
    ("bm", "dirichlet", "1e-8"): (
        0, "9f1c501195fb7acd0076f8bcab674640eb33eff3ca5687ba749266bc9dea762d"),
    ("bm", "measure", "1e-6"): (
        0, "15a2d67bf6018964bf7fee65bf0b4df0654935b9d920e5acfc9e76d691279952"),
    ("bm", "measure", "1e-8"): (
        0, "15a2d67bf6018964bf7fee65bf0b4df0654935b9d920e5acfc9e76d691279952"),
    ("borderline", "check-hunt", "1e-6"): (
        2, "5486286f4352c7a1466f536070f27ed390b310afe121cca02f92209e6bbe9afd"),
    ("borderline", "check-hunt", "1e-8"): (
        2, "5486286f4352c7a1466f536070f27ed390b310afe121cca02f92209e6bbe9afd"),
    ("borderline", "check-symmetry", "1e-6"): (
        2, "9e5e5bc6d89d1fad00d301f05357e8e32a1eaca3cfe5f558bee09148ce81f221"),
    ("borderline", "check-symmetry", "1e-8"): (
        2, "9e5e5bc6d89d1fad00d301f05357e8e32a1eaca3cfe5f558bee09148ce81f221"),
    ("borderline", "classify", "1e-6"): (
        2, "1616c9eed508fee506e741f9d411615fe50498c214fedae796203573f0b6b559"),
    ("borderline", "classify", "1e-8"): (
        2, "1616c9eed508fee506e741f9d411615fe50498c214fedae796203573f0b6b559"),
    ("borderline", "dirichlet", "1e-6"): (
        2, "3fc1f03447235a7bf40829c1cb090b77a544fea7a69c689437a21664b10795fa"),
    ("borderline", "dirichlet", "1e-8"): (
        2, "3fc1f03447235a7bf40829c1cb090b77a544fea7a69c689437a21664b10795fa"),
    ("borderline", "measure", "1e-6"): (
        2, "b8c7f880553b5f0d59677674aee11554e6e8a5ef0920b6812ad4d01c578fba06"),
    ("borderline", "measure", "1e-8"): (
        2, "b8c7f880553b5f0d59677674aee11554e6e8a5ef0920b6812ad4d01c578fba06"),
    ("drift", "check-hunt", "1e-6"): (
        0, "1667af5b2fe7ac3f02fb2c431d0d29aa789ba776881ca5400d06d68c6b79a124"),
    ("drift", "check-hunt", "1e-8"): (
        0, "1667af5b2fe7ac3f02fb2c431d0d29aa789ba776881ca5400d06d68c6b79a124"),
    ("drift", "check-symmetry", "1e-6"): (
        0, "98a93ad25093c395e7dc44493d2a7349ebbb6a63fb776344193d7acdec092251"),
    ("drift", "check-symmetry", "1e-8"): (
        0, "98a93ad25093c395e7dc44493d2a7349ebbb6a63fb776344193d7acdec092251"),
    ("drift", "classify", "1e-6"): (
        0, "aef33675395a0c71fe178d04ff957df1ee8a891e80e3527329249d6b0def8205"),
    ("drift", "classify", "1e-8"): (
        0, "aef33675395a0c71fe178d04ff957df1ee8a891e80e3527329249d6b0def8205"),
    ("drift", "dirichlet", "1e-6"): (
        1, "10d4887b35c4bc3bf582a0558f07a23bceca97071983176311d967f619410ef1"),
    ("drift", "dirichlet", "1e-8"): (
        1, "10d4887b35c4bc3bf582a0558f07a23bceca97071983176311d967f619410ef1"),
    ("drift", "measure", "1e-6"): (
        1, "e0f13ec33293c0b8cbe4db3bbbf469e0988f0f49624b93246076ed04615a05df"),
    ("drift", "measure", "1e-8"): (
        1, "e0f13ec33293c0b8cbe4db3bbbf469e0988f0f49624b93246076ed04615a05df"),
    ("exa1", "check-hunt", "1e-6"): (
        0, "0267e5154a578232d542d725a3bf653be68b5de44c22d3a8b1797f10632d9889"),
    ("exa1", "check-hunt", "1e-8"): (
        0, "0267e5154a578232d542d725a3bf653be68b5de44c22d3a8b1797f10632d9889"),
    ("exa1", "check-symmetry", "1e-6"): (
        0, "6a227755bd2b36999e3cf92fd23253aff519a8f8ad03d25af3ce7bdf4c99dace"),
    ("exa1", "check-symmetry", "1e-8"): (
        0, "6a227755bd2b36999e3cf92fd23253aff519a8f8ad03d25af3ce7bdf4c99dace"),
    ("exa1", "classify", "1e-6"): (
        0, "46b4e8256492303ba4452ee33389e48c0efd91525793d6a41662273c8eebbd97"),
    ("exa1", "classify", "1e-8"): (
        0, "a30530937280cb34ee9c7c097189a1792998b96ebca41073f5900737e6100ed2"),
    ("exa1", "dirichlet", "1e-6"): (
        1, "2c0044e06623cc3bfb6cd72690625ed996afe241c2de81e1e2dbd133adee341e"),
    ("exa1", "dirichlet", "1e-8"): (
        1, "2c0044e06623cc3bfb6cd72690625ed996afe241c2de81e1e2dbd133adee341e"),
    ("exa1", "measure", "1e-6"): (
        1, "a609f7855d9aed081c56252fd8a1d64f3ca659c0add3d86500f787e1f380e845"),
    ("exa1", "measure", "1e-8"): (
        1, "a609f7855d9aed081c56252fd8a1d64f3ca659c0add3d86500f787e1f380e845"),
    ("exa2", "check-hunt", "1e-6"): (
        0, "2b34f98875d510eff789a006f05bb189065bbbc60edbd30546e07cd235ab67f4"),
    ("exa2", "check-hunt", "1e-8"): (
        0, "2b34f98875d510eff789a006f05bb189065bbbc60edbd30546e07cd235ab67f4"),
    ("exa2", "check-symmetry", "1e-6"): (
        0, "2b3a12eb5d6e087b09b9ccc8226201ba7b1d3bdb718a213533175dfc44dd8ca3"),
    ("exa2", "check-symmetry", "1e-8"): (
        0, "2b3a12eb5d6e087b09b9ccc8226201ba7b1d3bdb718a213533175dfc44dd8ca3"),
    ("exa2", "classify", "1e-6"): (
        0, "bfcc3aa328e4abdcd012b05fc0bfff3c5dd5d36235aa0276bc4fcb8faa20db22"),
    ("exa2", "classify", "1e-8"): (
        0, "42a82f32fd7f0fd4ba7915fa4b0f811456cbfc26fbb6e69924280a4984346725"),
    ("exa2", "dirichlet", "1e-6"): (
        1, "01c5505300b7b2b1a8caddcef32ac8644534e3ffc8ddab66c46206b74e2e3ed2"),
    ("exa2", "dirichlet", "1e-8"): (
        1, "01c5505300b7b2b1a8caddcef32ac8644534e3ffc8ddab66c46206b74e2e3ed2"),
    ("exa2", "measure", "1e-6"): (
        0, "3e709561d52bc3756052f5c7823bd0ab2690673425aaaa87c7d0067a6e48856a"),
    ("exa2", "measure", "1e-8"): (
        0, "3e709561d52bc3756052f5c7823bd0ab2690673425aaaa87c7d0067a6e48856a"),
    ("nonradon", "check-hunt", "1e-6"): (
        0, "54a4a2064a15df8469dcc9aec27975e55145fe9a9534acb7c6624aedd5976f64"),
    ("nonradon", "check-hunt", "1e-8"): (
        0, "54a4a2064a15df8469dcc9aec27975e55145fe9a9534acb7c6624aedd5976f64"),
    ("nonradon", "check-symmetry", "1e-6"): (
        0, "3f284067c7c64a7281effc230d053e897b8a18c373abcaf4ba3c8e04c32d5a94"),
    ("nonradon", "check-symmetry", "1e-8"): (
        0, "3f284067c7c64a7281effc230d053e897b8a18c373abcaf4ba3c8e04c32d5a94"),
    ("nonradon", "classify", "1e-6"): (
        0, "3cac740cb5c4c80a8d9d81120a81bcc4711f4572ed904ef51cd87f8a5a6b0068"),
    ("nonradon", "classify", "1e-8"): (
        0, "1b76a4a671c04854c89b8c57514fed454fa9af175f5b05c76ebd39f4ad2f2216"),
    ("nonradon", "dirichlet", "1e-6"): (
        0, "a6b3a717393bf949dc54d84993a4e96bab6154a311f76ddf979071ffa1f4b54d"),
    ("nonradon", "dirichlet", "1e-8"): (
        0, "a6b3a717393bf949dc54d84993a4e96bab6154a311f76ddf979071ffa1f4b54d"),
    ("nonradon", "measure", "1e-6"): (
        0, "f084012de570cb05965db397c6d13e0058cd477733500486c61c593ce40998d5"),
    ("nonradon", "measure", "1e-8"): (
        0, "f084012de570cb05965db397c6d13e0058cd477733500486c61c593ce40998d5"),
    ("split-bm", "check-hunt", "1e-6"): (
        0, "f00c70f91d9ff56f56859db3e5f2a72a519a3e6fa5f4295c218227218816e09b"),
    ("split-bm", "check-hunt", "1e-8"): (
        0, "f00c70f91d9ff56f56859db3e5f2a72a519a3e6fa5f4295c218227218816e09b"),
    ("split-bm", "check-symmetry", "1e-6"): (
        0, "ac805e91b01b699f79681cb49b3c5efeb8ac61307e69c4c409a717e0970b6b13"),
    ("split-bm", "check-symmetry", "1e-8"): (
        0, "ac805e91b01b699f79681cb49b3c5efeb8ac61307e69c4c409a717e0970b6b13"),
    ("split-bm", "classify", "1e-6"): (
        0, "e6f97f2e71619089652ada5b74fb82c52ed6c4dc24feb67a1a21d4d7fec7697c"),
    ("split-bm", "classify", "1e-8"): (
        0, "e6f97f2e71619089652ada5b74fb82c52ed6c4dc24feb67a1a21d4d7fec7697c"),
    ("split-bm", "dirichlet", "1e-6"): (
        0, "5426a0fd2fdcaea79982c9875ad7396e8c0d1adf0a45a2d572d3ebb61885b1a3"),
    ("split-bm", "dirichlet", "1e-8"): (
        0, "5426a0fd2fdcaea79982c9875ad7396e8c0d1adf0a45a2d572d3ebb61885b1a3"),
    ("split-bm", "measure", "1e-6"): (
        0, "5a1bc4a8827b8fb72b68b3417cd7f011b7f7dc3fd97647d00a126d63d9c66da6"),
    ("split-bm", "measure", "1e-8"): (
        0, "5a1bc4a8827b8fb72b68b3417cd7f011b7f7dc3fd97647d00a126d63d9c66da6"),
}


def report_digest(source, command, rel_tol):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *source, "--rel-tol", rel_tol])
    text = out.getvalue() + "\0" + err.getvalue()
    return code, hashlib.sha256(text.encode()).hexdigest()


def _source(name, tmp_path, borderline_doc):
    if name != BORDERLINE:
        return ["--example", name]
    path = tmp_path / "borderline.json"
    path.write_text(json.dumps(borderline_doc))
    return ["--spec", str(path)]


def test_every_report_is_pinned():
    names = list_examples() + [BORDERLINE]
    assert sorted(DIGESTS) == sorted((n, c, t) for n in names
                                     for c in COMMANDS for t in TOLS)


def test_pinned_exit_codes():
    for (name, command, _), (code, _) in DIGESTS.items():
        refused = ((command == "measure" and name in NOT_KILLED)
                   or (command == "dirichlet" and name in NOT_FULL))
        assert code == (2 if name == BORDERLINE else 1 if refused else 0)


@pytest.mark.parametrize("name, command, rel_tol", sorted(DIGESTS))
def test_report_digest(name, command, rel_tol, tmp_path, borderline_doc):
    source = _source(name, tmp_path, borderline_doc)
    assert report_digest(source, command, rel_tol) == \
        DIGESTS[(name, command, rel_tol)]
