"""Golden CLI runs and work counts for the witness pipeline.

Each golden case runs the CLI in-process inside a fresh directory, with
relative file names so that stdout carries no temporary path, and pins the
sha256 of stdout, the exit code and the sha256 of every file written.  The
inputs are pinned too, so a changed input generator is told apart from a
changed construction.

The work-count tests check that one run decomposes the input into SCCs once,
builds the open witness once and checks the maximal-loop precondition once.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from conftest import make_ex1, make_ex2, make_ex3
from omega_baire import (
    MullerTable,
    RandomSpec,
    build_baire_witness,
    build_meagre_complement,
    random_instance,
    serialize_automaton,
    verify_baire_witness,
)
from omega_baire.cli import run as cli_run
from omega_baire.to_buchi import VECTORIZE_THRESHOLD, buchi_state_bound


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _random_pair(n: int, seed: int):
    return random_instance(
        RandomSpec(n_states=n, alphabet_size=2, table_entry_count=3, seed=seed)
    )


def _inputs() -> dict[str, bytes]:
    """Input files by name: the three conftest examples, one random instance
    below and one above the translation-kernel threshold (each with its own
    table, and with its terminal-SCC table for `to-buchi`), and a pair of
    random instances for `check subset`, plus two pairs whose witness lassos
    change when the breadth-first walks visit successors in another order."""
    files = {
        "ex1.aut": (make_ex1(), MullerTable.of({0})),
        "ex2.aut": (make_ex2(), MullerTable.of({1})),
        "ex3.aut": (make_ex3(), MullerTable.of({0, 1})),
        "ex1-other.aut": (make_ex1(), MullerTable.of({1})),
    }
    for name, (n, seed) in {"small": (8, 3), "large": (220, 1)}.items():
        a, t = _random_pair(n, seed)
        files[f"{name}.aut"] = (a, t)
        files[f"{name}-terminal.aut"] = build_meagre_complement(a)
    files["pairA.aut"] = _random_pair(6, 11)
    files["pairB.aut"] = _random_pair(6, 12)
    for n, seed in ((5, 39), (8, 12)):
        files[f"order{n}A.aut"] = _random_pair(n, seed)
        files[f"order{n}B.aut"] = _random_pair(n, seed + 100)
    return {
        name: serialize_automaton(a, acc).encode("utf-8")
        for name, (a, acc) in files.items()
    }


def test_random_inputs_straddle_kernel_threshold():
    for name, n, seed, large in (("small", 8, 3, False), ("large", 220, 1, True)):
        a, _ = _random_pair(n, seed)
        a2, t2 = build_meagre_complement(a)
        cells = buchi_state_bound(a2, t2) * len(a.alphabet)
        assert (cells >= VECTORIZE_THRESHOLD) is large, name


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for stem in ("ex1", "ex2", "ex3", "small", "large"):
        for prune in ((), ("--no-prune",)):
            tag = "-noprune" if prune else ""
            cases[f"baire-buchi/{stem}{tag}"] = [
                "baire", f"{stem}.aut", "--out-open", "open.aut",
                "--out-meagre-complement", "mc.aut", "--buchi", *prune,
            ]
            tb_in = f"{stem}-terminal.aut" if stem in ("small", "large") else f"{stem}.aut"
            cases[f"to-buchi/{stem}{tag}"] = ["to-buchi", tb_in, "--out", "b.aut", *prune]
    cases["to-buchi/small-table"] = ["to-buchi", "small.aut", "--out", "b.aut"]
    cases["check-subset/ex1"] = ["check", "subset", "ex1.aut", "ex1-other.aut"]
    cases["check-subset/pair"] = ["check", "subset", "pairA.aut", "pairB.aut"]
    for n in (5, 8):
        cases[f"check-subset/order{n}"] = ["check", "subset", f"order{n}A.aut", f"order{n}B.aut"]
    cases["selftest"] = ["selftest", "--states", "6", "--trials", "30", "--seed", "7"]
    return cases


GOLDEN_INPUTS = {'ex1-other.aut': 'f6acfba9dcbbb79dbd577109251c4d163318479dd4b9a48f635fb94c3b8fcc61',
 'ex1.aut': 'd24845f8009fb358f2802216f3d32c1dfcbe0ce2c2f5ec2d729af6e71c5ec836',
 'ex2.aut': '914465b956e31b82a92be62366a0b0b3d84db3f9aeedd61885b8157ff78da41d',
 'ex3.aut': '7907123c376776b90230579a0bb56bc970c2d9af0e3a3e50a262ccfd47b74bd0',
 'large-terminal.aut': '4b7ed7679446afba3c509963671a07d141eec0e50396031172788b7daf58f563',
 'large.aut': '73dba3559f98fa66a45f4f20859ca47454fafecfecfda2cdf44cac92d38f5592',
 'order5A.aut': '59e5ebf36bd5d422ae23e459c4d91e33e91f910682c3179d80fb8864b965e420',
 'order5B.aut': '9c4aceb1e33f90bb6aa1ea38a5ebd78b678b2d09a40326fd6c8c8b30e35c1226',
 'order8A.aut': 'd62337c03f2dcf7ca61226b726ec294a83d23681bbea29c0c6d32a4125ac5875',
 'order8B.aut': '5912f53535813a3cd9f714d4e4d5c6e192c112e4c9e40b368f347a19fd36333a',
 'pairA.aut': '0a9ed58a35a805174859b103bf5c7507defb2ff75af84ed62b58c76f0190935e',
 'pairB.aut': '7b60dd8fba8da56618c17ad8495e96b303eb11abd5d797331a93cbc3180cc29f',
 'small-terminal.aut': '8775a72b2cb26a96939b679fbfef2a89d4107d376c4d0bf76dba3a3e35ae5d5a',
 'small.aut': '6159cd64de675bfaed74199f321f553aa75b98afc7a81d1386856638bfaaa20e'}

GOLDEN = {'baire-buchi/ex1': {'exit': 0,
                     'files': {'mc.aut': 'cffd72dfbbb8bb010f85a48e4461ba719e577ba20e2c5f1e141c0e5ba40778b7',
                               'mc.aut.buchi': 'e38d5baf833cba86d9551c8735ffb52b78ca46da10ab7babc012faf10416155a',
                               'open.aut': 'f35eca024be3c04ce9b8f3b208b121ae7bc3b88566c300b172c670167e1cbd9c',
                               'open.aut.buchi': '40efdbf2f2b4f20d1a2b8c3fa229f2128b3c2ad3955ed4244ce5ba41b503a61e'},
                     'stdout': 'e33890b613487d6bf24d431235fa63475e27a5692cc9e237e7919c0776d169c1'},
 'baire-buchi/ex1-noprune': {'exit': 0,
                             'files': {'mc.aut': 'cffd72dfbbb8bb010f85a48e4461ba719e577ba20e2c5f1e141c0e5ba40778b7',
                                       'mc.aut.buchi': '9f6b7a5ec8f5be0ec3151d5ae23da6f0898f7f98bac9cba61b16c7ab95a2bf25',
                                       'open.aut': 'f35eca024be3c04ce9b8f3b208b121ae7bc3b88566c300b172c670167e1cbd9c',
                                       'open.aut.buchi': '40efdbf2f2b4f20d1a2b8c3fa229f2128b3c2ad3955ed4244ce5ba41b503a61e'},
                             'stdout': '0e9c04f15bf53b0364d48f3bb77314897da484c73a69627d1cdbb32cac70c674'},
 'baire-buchi/ex2': {'exit': 0,
                     'files': {'mc.aut': 'd069aab21b1e20b27277ac563d7fd917ec35382a02f8a41b658328d2d3caa9d8',
                               'mc.aut.buchi': '4b450fd4a53d15b05bd7d515d66fff5202334303b6370ae1d1e9a3b36027cfd5',
                               'open.aut': '67cb107a0abd5ab5b4ab74de3a81ab263458f8b4ac46135ff78ecc63c0e572f2',
                               'open.aut.buchi': 'f0a9c1f33ec07e5396167076a00a0418676aad98c02f61aa68c58ff22539bfc8'},
                     'stdout': '0905949c8ae3c6a4b5d2e138641424c1ebd3741d9bd7c31f8a15d9054ef29206'},
 'baire-buchi/ex2-noprune': {'exit': 0,
                             'files': {'mc.aut': 'd069aab21b1e20b27277ac563d7fd917ec35382a02f8a41b658328d2d3caa9d8',
                                       'mc.aut.buchi': '4b450fd4a53d15b05bd7d515d66fff5202334303b6370ae1d1e9a3b36027cfd5',
                                       'open.aut': '67cb107a0abd5ab5b4ab74de3a81ab263458f8b4ac46135ff78ecc63c0e572f2',
                                       'open.aut.buchi': 'f0a9c1f33ec07e5396167076a00a0418676aad98c02f61aa68c58ff22539bfc8'},
                             'stdout': '0905949c8ae3c6a4b5d2e138641424c1ebd3741d9bd7c31f8a15d9054ef29206'},
 'baire-buchi/ex3': {'exit': 0,
                     'files': {'mc.aut': '7907123c376776b90230579a0bb56bc970c2d9af0e3a3e50a262ccfd47b74bd0',
                               'mc.aut.buchi': 'b96251b225f19fa4afc87ab0cfaad1e97bf0fe3ed23877925e180033710ae30d',
                               'open.aut': 'ef23920f4c80208a6d0d7c30c5cb11a19b5b3284e556f4b2ceea42b7f598ab73',
                               'open.aut.buchi': '1d19bb482df87b100c17836c0434e63811378e5fb90e0522526af0b4bcaa0a12'},
                     'stdout': '21dab1ca712c66f7eb052f0639055860f121ddcbfadb61547e4f22928df0237c'},
 'baire-buchi/ex3-noprune': {'exit': 0,
                             'files': {'mc.aut': '7907123c376776b90230579a0bb56bc970c2d9af0e3a3e50a262ccfd47b74bd0',
                                       'mc.aut.buchi': '235857c3c5b8e21c403424a18b74cb3991b0a05664f78a7ea7987ce153357388',
                                       'open.aut': 'ef23920f4c80208a6d0d7c30c5cb11a19b5b3284e556f4b2ceea42b7f598ab73',
                                       'open.aut.buchi': '1d19bb482df87b100c17836c0434e63811378e5fb90e0522526af0b4bcaa0a12'},
                             'stdout': 'b6471ef00a0a1af832eb8c7c51a1c815d8b247acba6d22214d3f13ec922d0116'},
 'baire-buchi/large': {'exit': 0,
                       'files': {'mc.aut': '4b7ed7679446afba3c509963671a07d141eec0e50396031172788b7daf58f563',
                                 'mc.aut.buchi': '87f3896701ac6329942ed305a7f285ef296ba4cbfca6c9b90e43c40516149738',
                                 'open.aut': '272b80e34af6790aa4876da4590486eb893681f3fd879b2a15f2277a68956a9e',
                                 'open.aut.buchi': 'fd05c1d7103bf7dd4f1b194cb09f364e5b3ddcf44b30cb3c6aab946391594cbc'},
                       'stdout': 'dbd4a02528c0ff2dc9c74bb989d445c82521630219a6fcfd0f2c9e17506b8797'},
 'baire-buchi/large-noprune': {'exit': 0,
                               'files': {'mc.aut': '4b7ed7679446afba3c509963671a07d141eec0e50396031172788b7daf58f563',
                                         'mc.aut.buchi': '072c32ebc910e08244531980dfbbabb102a45ebc645db456416ab7bc7f61e755',
                                         'open.aut': '272b80e34af6790aa4876da4590486eb893681f3fd879b2a15f2277a68956a9e',
                                         'open.aut.buchi': 'fd05c1d7103bf7dd4f1b194cb09f364e5b3ddcf44b30cb3c6aab946391594cbc'},
                               'stdout': '6833a1dfbf59380302dc02e15c80b3086bc85c109cd54e1b7bb7471a032d9cac'},
 'baire-buchi/small': {'exit': 0,
                       'files': {'mc.aut': '8775a72b2cb26a96939b679fbfef2a89d4107d376c4d0bf76dba3a3e35ae5d5a',
                                 'mc.aut.buchi': '555536be465b51538015312c3c1105aa710088482a57da289fd96a24f541feef',
                                 'open.aut': 'efaffe7a9dfab7a0b55251e360003a123f157b6796aaf02299e592807a46a5a5',
                                 'open.aut.buchi': '2c39c8a80a9ed6e783feb26679cfdef07bc3369c65dbcd6963d9836e6fe71fb5'},
                       'stdout': '341c814de449acab184706c2fff1f6d29e99c05d89d9fe2c836f2d817aa39827'},
 'baire-buchi/small-noprune': {'exit': 0,
                               'files': {'mc.aut': '8775a72b2cb26a96939b679fbfef2a89d4107d376c4d0bf76dba3a3e35ae5d5a',
                                         'mc.aut.buchi': '1c59fb949ede3b3590a12c7c6e045b329eb682ebc350292f17fc32dab91d737e',
                                         'open.aut': 'efaffe7a9dfab7a0b55251e360003a123f157b6796aaf02299e592807a46a5a5',
                                         'open.aut.buchi': '2c39c8a80a9ed6e783feb26679cfdef07bc3369c65dbcd6963d9836e6fe71fb5'},
                               'stdout': 'ac31270e74b7a2e9ea29d44dac22a26187f34423c5b29a981304d2f263679b69'},
 'check-subset/ex1': {'exit': 0,
                      'files': {},
                      'stdout': '9ef15405b7311e2bdb4ac1dafc8a9b9880126ae08dd691857099d3c502889018'},
 'check-subset/order5': {'exit': 0,
                         'files': {},
                         'stdout': 'a80ef7f547ecf5ddb5b1b3df32cdfc96fca0de8669a9dd2c6c6ad6acb89168a1'},
 'check-subset/order8': {'exit': 0,
                         'files': {},
                         'stdout': '3603eab8ff214916aa8fb85cbf701a9c9b96e861f040973758b0b0ad2103d9c3'},
 'check-subset/pair': {'exit': 0,
                       'files': {},
                       'stdout': '97822d0ff7fe6f5c1f25e7c9e4411e4bf73c058a3ecb4ae942419980a74ba1fb'},
 'selftest': {'exit': 0,
              'files': {},
              'stdout': 'f17fe6ebc65f0d0c77cda8e08a974d90af2aee42df29499ad114e2c57e409984'},
 'to-buchi/ex1': {'exit': 4,
                  'files': {},
                  'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'to-buchi/ex1-noprune': {'exit': 4,
                          'files': {},
                          'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'to-buchi/ex2': {'exit': 0,
                  'files': {'b.aut': 'f9b7b2997d69f9f1fed452c1a457ff2c6ebc2c7724cc0990f3a8eff09620349f'},
                  'stdout': '8ccbf5fc3d2b114d4bd6c87068092629372c7d9194283dccc2ca0bb4c6690679'},
 'to-buchi/ex2-noprune': {'exit': 0,
                          'files': {'b.aut': 'f9b7b2997d69f9f1fed452c1a457ff2c6ebc2c7724cc0990f3a8eff09620349f'},
                          'stdout': '8ccbf5fc3d2b114d4bd6c87068092629372c7d9194283dccc2ca0bb4c6690679'},
 'to-buchi/ex3': {'exit': 0,
                  'files': {'b.aut': 'b96251b225f19fa4afc87ab0cfaad1e97bf0fe3ed23877925e180033710ae30d'},
                  'stdout': '4ae1980edb6f202bff50040cda84f27b1a4130c08bc1402f3264021f7dad7715'},
 'to-buchi/ex3-noprune': {'exit': 0,
                          'files': {'b.aut': '235857c3c5b8e21c403424a18b74cb3991b0a05664f78a7ea7987ce153357388'},
                          'stdout': '0a0c09ed965bfaa9dddc74598d6cdb4089276ff981d58f19846e33283f14f339'},
 'to-buchi/large': {'exit': 0,
                    'files': {'b.aut': '87f3896701ac6329942ed305a7f285ef296ba4cbfca6c9b90e43c40516149738'},
                    'stdout': '8248d02640992cdf1a3997f392b020940c9fd28433cda9841af5a027d1a391d7'},
 'to-buchi/large-noprune': {'exit': 0,
                            'files': {'b.aut': '072c32ebc910e08244531980dfbbabb102a45ebc645db456416ab7bc7f61e755'},
                            'stdout': '924d891cb4a33b164daddaac4cf412f8d7a1f7fa66ab59f2dc169d5e59e010f9'},
 'to-buchi/small': {'exit': 0,
                    'files': {'b.aut': '555536be465b51538015312c3c1105aa710088482a57da289fd96a24f541feef'},
                    'stdout': 'b5d3d49825ec01b40f25026652d9e8240012b5038884b270678e955a839af503'},
 'to-buchi/small-noprune': {'exit': 0,
                            'files': {'b.aut': '1c59fb949ede3b3590a12c7c6e045b329eb682ebc350292f17fc32dab91d737e'},
                            'stdout': '829a673e7d90d638f6461ea9b433cb26e7b5bd166af294d69454997a302c86e1'},
 'to-buchi/small-table': {'exit': 4,
                          'files': {},
                          'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'}}


def _run_case(argv, workdir: Path, capsys):
    inputs = _inputs()
    for name, data in inputs.items():
        (workdir / name).write_bytes(data)
    capsys.readouterr()
    code = cli_run(argv)
    out = capsys.readouterr().out
    written = {
        p.name: _sha(p.read_bytes())
        for p in sorted(workdir.iterdir())
        if p.name not in inputs
    }
    return {"exit": code, "stdout": _sha(out.encode("utf-8")), "files": written}


def test_golden_inputs():
    assert {k: _sha(v) for k, v in _inputs().items()} == GOLDEN_INPUTS


@pytest.mark.parametrize("case", sorted(_cases()))
def test_golden_cli(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _run_case(_cases()[case], tmp_path, capsys) == GOLDEN[case]


# ---------------------------------------------------------------------------
# Work counts


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def counters(monkeypatch):
    import omega_baire.baire as baire_mod
    import omega_baire.loops as loops_mod
    import omega_baire.to_buchi as to_buchi_mod

    return (
        _count_calls(monkeypatch, loops_mod, "scc_decompose"),
        _count_calls(monkeypatch, baire_mod, "build_open_witness"),
        _count_calls(monkeypatch, to_buchi_mod, "check_maximal_loops"),
    )


@pytest.mark.parametrize(
    "argv, open_builds",
    [
        (["baire", "large.aut", "--out-open", "o", "--out-meagre-complement", "m", "--buchi"], 1),
        (["baire", "ex3.aut", "--out-open", "o", "--out-meagre-complement", "m", "--buchi", "--no-prune"], 1),
        (["to-buchi", "large-terminal.aut", "--out", "b"], 0),
        (["to-buchi", "ex2.aut", "--out", "b", "--no-prune"], 0),
    ],
)
def test_cli_run_decomposes_once(argv, open_builds, tmp_path, monkeypatch, capsys, counters):
    monkeypatch.chdir(tmp_path)
    for name, data in _inputs().items():
        (tmp_path / name).write_bytes(data)
    decompositions, witnesses, checks = counters
    decompositions[0] = witnesses[0] = checks[0] = 0
    assert cli_run(argv) == 0
    assert (decompositions[0], witnesses[0], checks[0]) == (1, open_builds, 1)


@pytest.mark.parametrize("stem", ["ex1", "small"])
def test_refused_to_buchi_checks_precondition_once(stem, tmp_path, monkeypatch, capsys, counters):
    monkeypatch.chdir(tmp_path)
    for name, data in _inputs().items():
        (tmp_path / name).write_bytes(data)
    _, _, checks = counters
    checks[0] = 0
    assert cli_run(["to-buchi", f"{stem}.aut", "--out", "b"]) == 4  # non-maximal entry
    assert checks[0] == 1


def test_pipeline_builds_open_witness_once(counters):
    decompositions, witnesses, _ = counters
    a, t = _random_pair(8, 3)
    decompositions[0] = 0
    build_baire_witness(a, t)
    assert (decompositions[0], witnesses[0]) == (1, 1)
    witnesses[0] = 0
    verify_baire_witness(a, t)
    assert witnesses[0] == 1
