"""Command line tests: end to end through ``python -m nilcoh``, and in
process through ``cli.main`` where hypothesis fuzzes documents and flags."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import cli, cocycles, exactlinalg, families, grouplaw
from nilcoh.cocycles import lemmax_generators
from nilcoh.grouplaw import bracket_matrix, presentation_to_json


# the commands that read cokernel's LemmaX lifts
LEMMAX_COMMANDS = ["cocycles", "verify", "extend", "witness"]


def run_cli(args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "nilcoh"] + args,
        input=stdin_text, capture_output=True, text=True)


def set_table_entry(monkeypatch, fiber, mono, coeff):
    """Make every cocycle table that ``cocycles._polys`` builds, at index
    FIBER, carry the coefficient COEFF at the monomial MONO (slot numbers)."""
    polys = cocycles._polys

    def mutant(P, ws):
        out = polys(P, ws)
        out[fiber][mono] = coeff
        return out

    monkeypatch.setattr(cocycles, "_polys", mutant)


def spy_method(cls, name):
    """Patch the method cls.name with a mock that counts its calls and runs
    the method, self included."""
    return mock.patch.object(cls, name, autospec=True,
                             side_effect=getattr(cls, name))


@pytest.fixture
def heisenberg_file(tmp_path):
    path = tmp_path / "heisenberg.json"
    path.write_text(json.dumps(presentation_to_json(families.heisenberg())))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    P = families.divisor_chain_group((2, 4))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(presentation_to_json(P)))
    return str(path)


class TestReports:
    def test_h2_text_report(self, heisenberg_file):
        res = run_cli(["h2", "--input", heisenberg_file])
        assert res.returncode == 0
        assert "H^2 = Z^2" in res.stdout
        assert "agree = yes" in res.stdout

    def test_h1(self, heisenberg_file):
        res = run_cli(["h1", "--input", heisenberg_file])
        assert res.returncode == 0
        assert res.stdout == "H^1 = Z^2\n"

    def test_h1_coefficient_rank(self, heisenberg_file):
        res = run_cli(["h1", "--input", heisenberg_file, "--coeff-rank", "3"])
        assert res.stdout == "H^1 = Z^6\n"

    def test_homology_rank(self, chain_file):
        res = run_cli(["homology-rank", "--input", chain_file])
        assert res.returncode == 0
        assert res.stdout == "H_2 free rank = 5\n"

    def test_cocycles_listing(self, chain_file):
        res = run_cli(["cocycles", "--input", chain_file])
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert len(lines) == 6
        assert sum("[lemmax, order 2]" in line for line in lines) == 1
        assert sum("[lemmax, infinite order]" in line for line in lines) == 5

    def test_verify(self, heisenberg_file):
        res = run_cli(["verify", "--input", heisenberg_file, "--trials", "50"])
        assert res.returncode == 0
        assert "cocycle 1: PASS (proved)" in res.stdout
        assert res.stdout.rstrip().endswith("all passed")

    def test_extend(self, heisenberg_file):
        res = run_cli(["extend", "--input", heisenberg_file, "--trials", "100"])
        assert res.returncode == 0
        assert "central extension by Z^2 built from 2 cocycles" in res.stdout
        assert "associativity and inverse laws: PASS (proved)" in res.stdout

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_extend_rejected_fiber_is_exit_1(self, monkeypatch, fmt):
        # the table of cocycle 0 gains 3*a1', which is not normalized
        set_table_entry(monkeypatch, 0, (4,), 3)  # (4,): a1' on Heisenberg
        P = families.heisenberg()
        doc = json.dumps(presentation_to_json(P)).encode()
        code, out, err = run_in_process(
            ["extend", "--trials", "5", "--format", fmt], doc)
        message = ("extension rejected: fiber 0 failed verification: "
                   "normalization fails at monomial a1'")
        assert (code, err) == (1, "")
        if fmt == "text":
            assert out == message + "\n"
        else:
            assert out == cli.dump_json({
                "group": presentation_to_json(P),
                "extend": {"ok": False, "message": message}})

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_extend_law_failure_is_exit_1(self, monkeypatch, fmt):
        # the table of cocycle 1 gains C(a1,2)*a2', which is normalized
        # but not a cocycle, so the proof of delta w = 0 fails
        set_table_entry(monkeypatch, 1, (1, 6), 1)  # C(a1,2)*a2' on Heisenberg
        P = families.heisenberg()
        doc = json.dumps(presentation_to_json(P)).encode()
        code, out, err = run_in_process(
            ["extend", "--trials", "5", "--format", fmt], doc)
        message = ("extension rejected: fiber 1 failed verification: cocycle "
                   "identity fails: delta w has the monomial a1*a1'*a2''")
        assert (code, err) == (1, "")
        if fmt == "text":
            assert out == message + "\n"
        else:
            assert out == cli.dump_json({
                "group": presentation_to_json(P),
                "extend": {"ok": False, "message": message}})

    def test_witness_without_torsion(self, heisenberg_file):
        res = run_cli(["witness", "--input", heisenberg_file])
        assert res.returncode == 0
        assert res.stdout == "no torsion classes; nothing to search\n"

    def test_witness_on_torsion(self, chain_file):
        res = run_cli(["witness", "--input", chain_file])
        assert res.returncode == 0
        assert "order-2 class: 2 * cocycle = coboundary of u =" in res.stdout

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_witness_that_finds_no_primitive_is_exit_1(self, monkeypatch,
                                                       fmt):
        # chain(2,4)'s order-2 class reported as order 1: w itself is no
        # coboundary, so the search comes back empty
        real = cocycles.lemmax_generators
        monkeypatch.setattr(cocycles, "lemmax_generators", lambda P: [
            cocycles.CocycleLemmaX(w.f, 1 if w.order == 2 else w.order)
            for w in real(P)])
        P = families.divisor_chain_group((2, 4))
        doc = json.dumps(presentation_to_json(P)).encode()
        code, out, err = run_in_process(["witness", "--format", fmt], doc)
        assert (code, err) == (1, "")
        if fmt == "text":
            assert out == "order-1 class: 1 * cocycle is not a coboundary\n"
        else:
            assert json.loads(out)["witness"] == [{"order": 1, "found": False}]

    def test_witness_on_near_free_n6(self, tmp_path):
        # the closed form needs one lattice solve per class; a search over
        # polynomial ansatzes ran past 120 s on this group
        P = families.random_presentation(6, 15, 5, 1)
        path = tmp_path / "near-free-n6.json"
        path.write_text(json.dumps(presentation_to_json(P)))
        res = subprocess.run([sys.executable, "-m", "nilcoh", "witness",
                              "--input", str(path)],
                             capture_output=True, text=True, timeout=30)
        assert res.returncode == 0, res.stderr
        orders = [w.order for w in lemmax_generators(P) if w.order]
        lines = res.stdout.splitlines()
        assert orders and len(lines) == len(orders)
        for d, line in zip(orders, lines):
            assert line.startswith("order-%d class: %d * cocycle = coboundary "
                                   "of u = " % (d, d))


class TestPipelines:
    def test_gen_piped_into_h2(self):
        gen = run_cli(["gen", "--family", "paper-example", "--n", "2",
                       "--d", "2,4"])
        assert gen.returncode == 0
        res = run_cli(["h2"], stdin_text=gen.stdout)
        assert res.returncode == 0
        assert "Z^5 (+) Z_2" in res.stdout.splitlines()[0]

    def test_gen_heisenberg_document(self):
        res = run_cli(["gen", "--family", "heisenberg"])
        assert res.returncode == 0
        assert json.loads(res.stdout) == {
            "n": 2, "m": 1, "brackets": [{"i": 1, "j": 2, "y": [1]}]}

    def test_gen_random_is_deterministic(self):
        a = run_cli(["gen", "--family", "random", "--n", "4", "--m", "2",
                     "--seed", "9"])
        b = run_cli(["gen", "--family", "random", "--n", "4", "--m", "2",
                     "--seed", "9"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_out_flag_writes_file(self, heisenberg_file, tmp_path):
        target = tmp_path / "report.txt"
        res = run_cli(["h2", "--input", heisenberg_file, "--out", str(target)])
        assert res.returncode == 0
        assert res.stdout == ""
        assert "H^2 = Z^2" in target.read_text()


class TestJsonOutput:
    def test_round_trip_is_byte_identical(self, chain_file):
        res = run_cli(["h2", "--input", chain_file, "--format", "json"])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == res.stdout
        assert doc["h2"]["total"] == {"free": 5, "torsion": [2]}
        assert doc["h2"]["agree"] is True

    def test_identical_invocations_identical_bytes(self, chain_file):
        runs = [run_cli(["cocycles", "--input", chain_file, "--format", "json"])
                for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout

    def test_validate_json(self, heisenberg_file):
        res = run_cli(["validate", "--input", heisenberg_file,
                       "--format", "json"])
        assert json.loads(res.stdout)["valid"] is True


PRESENTATION_COMMANDS = ["validate", "h1", "h2", "homology-rank", "cocycles",
                         "verify", "extend", "witness"]

# SHA-256 of the stdout of COMMAND --format FORMAT --seed 1, plus
# --trials 40 for verify and extend, each with exit code 0; COMMAND may
# carry a flag of its own, as in "h2 --coeff-rank 2"
PINNED_GROUPS = {"heisenberg": families.heisenberg(),
                 "near-free-n3": families.random_presentation(3, 3, 3, 1003),
                 "near-free-n4": families.random_presentation(4, 6, 3, 1004),
                 "dheis-2": families.discrete_heisenberg(2),
                 "dheis-3": families.discrete_heisenberg(3),
                 "dheis-4": families.discrete_heisenberg(4),
                 "dheis-5": families.discrete_heisenberg(5),
                 "chain-2-6": families.divisor_chain_group((2, 6)),
                 "chain-3-3-6": families.divisor_chain_group((3, 3, 6)),
                 "near-free-n3-2026003":
                     families.random_presentation(3, 3, 3, 2026003),
                 "near-free-n5-2026005":
                     families.random_presentation(5, 10, 3, 2026005)}
PINNED_REPORTS = [
    ("heisenberg", "verify", "text", "dd5839fc185058076cbff79c90f34bfca4a94e2c2de8199fe1cb8afbd8eba431"),
    ("heisenberg", "verify", "json", "659173abf250e53b6ad4387bbed1e956f553381ae7fa2c6f8df109c5b8dd880e"),
    ("heisenberg", "extend", "text", "b9adbf7206f63297545be7c71fea0c686d3e4c43685d5bb9335e3db59fd747db"),
    ("heisenberg", "extend", "json", "f7e584e87251bd2d37749d0b26bf3b9eb50a59a5238aa23ca29252c124128664"),
    ("near-free-n3", "verify", "text", "45cab2b8e44e0c3057227eb6ab42c6daa137781e965d898c1a55c9ea82752d3a"),
    ("near-free-n3", "verify", "json", "560ae8cce75d57acf1202fec4861deaf52912b27288a6ba7ec608131ddef0770"),
    ("near-free-n3", "extend", "text", "363619b439c649e04bb416eb4f85e2353f838f95be40b09b33bb73ddfe2af050"),
    ("near-free-n3", "extend", "json", "f75319ce6491e07a9c80a302c915605fec8c8e12e9e5b2fb56270716985958c7"),
    ("near-free-n4", "verify", "text", "325d4426469e6a826eb0fd462cd0cd634d5eea3bb8d758213dd59a24ea3ce58f"),
    ("near-free-n4", "verify", "json", "fd13e0928faf23e735b2ed27611c83a6dfcd5d1f34b868b419db1dd22a0ffa0a"),
    ("near-free-n4", "extend", "text", "097cb7f62b61d0ab368cbad05d1889cbe3fc6e2b4b2cbc69e8a1d5388045da51"),
    ("near-free-n4", "extend", "json", "a9706d1a1eb0af00af8178710333aada1e8e5ae3460f0eb33bbf96046b318ee3"),
    ("dheis-2", "witness", "text", "79fbed824794fd7b8ef105cf2c41b77149269d52a3b002ccee4b195a4de6cffa"),
    ("dheis-2", "witness", "json", "bc7e6e4449cbff2cf64139dc113ea07e25aa7983e3e7d78b358e4faa7853204b"),
    ("dheis-3", "witness", "text", "1353b0dae8fdd05a46ee4416a4f5670dcb0f3d1af9d7fb06b96f8322e19d8a63"),
    ("dheis-3", "witness", "json", "7e8c536d72a2b8a37f733bf891df41433b653841d8c4695f103f5c176fed3572"),
    ("dheis-4", "witness", "text", "e2f579bc252b30dedc3110d33fe06ee39daf25f9551f52a972d86cfb924e945e"),
    ("dheis-4", "witness", "json", "e02aa41e79ab7dbee9fd96e93de4caaa1c62f0a56f2b0b4481cbf34ddbde26e0"),
    ("dheis-5", "witness", "text", "ad7430363a08e213a9f232cf9c49c21176970751d53c8db232247fc223b7e53f"),
    ("dheis-5", "witness", "json", "3dc7bf71add69ff4ec770ef649e8a8ab15e6f0cd9af6ace899737027e8d43b01"),
    ("chain-2-6", "witness", "text", "79fbed824794fd7b8ef105cf2c41b77149269d52a3b002ccee4b195a4de6cffa"),
    ("chain-2-6", "witness", "json", "63d21e0c1a7988343525b7d875a87f8d870df7c027c12e2d60e712a6533e2908"),
    ("chain-3-3-6", "witness", "text", "1353b0dae8fdd05a46ee4416a4f5670dcb0f3d1af9d7fb06b96f8322e19d8a63"),
    ("chain-3-3-6", "witness", "json", "84c73ace38a5ed8d61d63e02337e37adc479299f0bb93c7110dc288e1cb4b61b"),
    ("near-free-n3-2026003", "witness", "text", "d12ad260441406dc29997e419b88199244fc725ab83025297e12f665b4bece39"),
    ("near-free-n3-2026003", "witness", "json", "7be4a74757213227078b7b75c9dec8f76862f97d0c497615a358b7ef687268b3"),
    ("near-free-n4", "witness", "text", "6660cebabd756261393211720c201c2c33437eca1059a778d76914bfce55ec64"),
    ("near-free-n4", "witness", "json", "def2bf5042a57478f334c1b7bbe1f945dc8951146232ae78f1e3f4ecbb5dac92"),
    ("near-free-n5-2026005", "witness", "text", "7747bd692734ca2cd047200c279489a5372a200ac6fd503309593d2fde631413"),
    ("near-free-n5-2026005", "witness", "json", "19b5af454339ba0391de1039c87806ae5a4cbb3c8617789adc35499f3468368b"),
    ("heisenberg", "cocycles", "text", "416a828e670f20ffc28e65586e8d5b9f5a3e9f06cb8a406b4c0302b44cf37b9a"),
    ("heisenberg", "cocycles", "json", "3a8e1c8ba09215cd22d307d57cf5e087a3f28e6c54de8e4c3a10a48a026ff0d4"),
    ("heisenberg", "h2", "text", "92ae7a98af31baa6f388ab7242b100f071f3d419fd06fc8e5902aa37f0e2c20e"),
    ("heisenberg", "h2", "json", "51096121c4e30b52c9ac41b914ad204b4a206018856e1e1aeb3ed2722aca768a"),
    ("near-free-n3", "cocycles", "text", "08ff2e56d35393692fdbc718fd3d19f148a72f6531bc5e92b6b44891dd449c10"),
    ("near-free-n3", "cocycles", "json", "4ab0f17d15f1779b9baee2a12f44c2250a0a31344ebed274420b93e4ea28219d"),
    ("near-free-n3", "h2", "text", "26aa4366d868848cbbabfc87842f2096199b34b56cf141fd31f87e5633438263"),
    ("near-free-n3", "h2", "json", "7a164a3e5cc2ed7d50e1a24917b4f74d5eb500db345c20ee26d4d88c906e08c7"),
    ("near-free-n4", "cocycles", "text", "f1e58c2e18a233de805262b6d8a15cd391059309b76c8c912e9a115f8d623f4e"),
    ("near-free-n4", "cocycles", "json", "d525e1026703655d524ac7e8132c5f03f8dbb5db9e2429b1e8ec342c875f7dd1"),
    ("near-free-n4", "h2", "text", "60dee68fd9e7916d9d5fa2303c44dd9ce8aa6198f9db476285ce78ea1cf2be0d"),
    ("near-free-n4", "h2", "json", "9859b47733e44d339072955d372d456b1f02d4c62e1663fede2bbf55c4cc7157"),
    ("dheis-2", "cocycles", "text", "f676a0eda57173e7207c6b2f5bdc565768263c12472f15839238eb5dd88a7af0"),
    ("dheis-2", "cocycles", "json", "b2721067445d2ff3309965f223236b2bdf22b246bb581d678b7e958791fe1421"),
    ("dheis-2", "h2", "text", "6031ded4a4c16beeddc74e394e414ae42122c3abd0a90ab2b4b74ca7d5886b16"),
    ("dheis-2", "h2", "json", "e70347938d465823125567bb2a58f59037a5a1656643ba75b1bc120f3ca909c3"),
    ("dheis-3", "cocycles", "text", "a01a1c47dbfd67a56889de9659a49c990b0a2d31aef416f90a1b60f99db51759"),
    ("dheis-3", "cocycles", "json", "b74e6289c55e17c47da20ba6df93eeb72e6b2fd2e525cddf9555b4c8a63c8a28"),
    ("dheis-3", "h2", "text", "8010f8503724bff1b2b354b848e090b15b7ed818eb934b163e42d86ae0466dd7"),
    ("dheis-3", "h2", "json", "eef41c6dad6fd96fc1375712efadd5af3b432aefde6752efa820b93f5b975b58"),
    ("dheis-4", "cocycles", "text", "bc4c4fbac8ddf279e16a686e9cd463119db8ddb788c0b57d44b8eda42e18d8f5"),
    ("dheis-4", "cocycles", "json", "60e29b168c4d0477768abb0c974d5f5048ce099d6998a181fd2c574688e8976e"),
    ("dheis-4", "h2", "text", "4ef77ca7f26a77402d86fe00f271d3ea6daa39ff215b3b7dddd0badd7d72ff01"),
    ("dheis-4", "h2", "json", "f7f08fdb974e944c18a867e273b2f42905d011cccc123e0ef361953256a086fc"),
    ("dheis-5", "cocycles", "text", "cb57efa6f37eb699c558bb9b6f48f81753901fbb6a251073cdb2218b15a3b1e0"),
    ("dheis-5", "cocycles", "json", "759d98c4b87332fd4b57d402177acf6f0b55edf174afc1d16277aff9f5b35e89"),
    ("dheis-5", "h2", "text", "c471adb9080d9737190cf3e300f4f39d23a1fd6a83a76c2fc6c07a0b404c34b8"),
    ("dheis-5", "h2", "json", "6839254fa695de2bbc5498c14572610de9bc2267bf2d0f6112de22dbbbab37bb"),
    ("chain-2-6", "cocycles", "text", "dc337b49bdc750a6f2cb766a7f7e11e63c01436a5513826782cd89fce6db5f88"),
    ("chain-2-6", "cocycles", "json", "08515338f63e21e5f0c403a815ae693c08ce6c64c473d52a6e5ab25248ddff6d"),
    ("chain-2-6", "h2", "text", "06fe296d7d719fab1fbef8be6fba7f58eecaa5f2abd065a0575df24213633898"),
    ("chain-2-6", "h2", "json", "facf91f8710ebc7764e40efc842fd7127776bbb650438db5c94b2dbd76e198af"),
    ("chain-3-3-6", "cocycles", "text", "123ac88dcf0839db1f4587bfbc53c01f31b01cac146ed7122b4b3bfa7ece884b"),
    ("chain-3-3-6", "cocycles", "json", "8c2d0357b4ca2d34be092f4d29f03a51d69f010b6e61933008f4fdfcd4ecb583"),
    ("chain-3-3-6", "h2", "text", "25bb367b95eee0e6d754d59f54ca5be2d4d6b8f284b152a7142b4ea9411389c2"),
    ("chain-3-3-6", "h2", "json", "519d5afdd64b8c6da645b98ea09bf0c54b2b71ed277a0d4579bd2cbfbb50ae86"),
    ("near-free-n3-2026003", "cocycles", "text", "2ed7a7efc3b87efd7a34d59078e4572973517326f87255c8dd2728bca86cb19f"),
    ("near-free-n3-2026003", "cocycles", "json", "29ff2c3768ac9673d1e43e178894b78dfe25b2937d43d4a6de546288ed4dd598"),
    ("near-free-n3-2026003", "h2", "text", "5de79a47fdf7cf5e01de85160041f9a18507542de0338a563b5632682b3000ec"),
    ("near-free-n3-2026003", "h2", "json", "18171a50c40569b6393b8e79ebf3f821ae82e2b7dc3e2115ef9f98b8ffa39ffa"),
    ("near-free-n5-2026005", "cocycles", "text", "58a6ce4778410c81d3c4a8b8eb714c5d5228ae538acfc141d2de1be48a300a1c"),
    ("near-free-n5-2026005", "cocycles", "json", "3588883853ba382b648586d7d543ffeee1ae1ccb4669a6c92b5da67edec727cc"),
    ("heisenberg", "validate", "text", "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("heisenberg", "validate", "json", "39ac8dc6810bf6290e560b716d81f3b589143481f813176aced9c98b6e17186d"),
    ("heisenberg", "h1", "text", "bca37fae7c7cfe69a1034a0ea1b04c0b6515ac47dddc2f023e67846c31af7196"),
    ("heisenberg", "h1", "json", "6786b739e09e0805e8d517492555fbae4856a56dfe882ea0783cd83578c5f044"),
    ("heisenberg", "h2 --coeff-rank 2", "text", "3c3e4117a5e7eb955706066311057fbfbbd2b087b16cf0b10bcbb3cc0afa414c"),
    ("heisenberg", "h2 --coeff-rank 2", "json", "0b3dbff6f86f0d30e09831c2a9d8d1ff9da68cb1849509c392968d1967fa91f4"),
    ("heisenberg", "homology-rank", "text", "bad015426298905e57506b44eb1a521b68ec2f8b4eb5b7110c5d1ef8c36037df"),
    ("heisenberg", "homology-rank", "json", "a81587dbb61d4e445d07a2a581fdbf88f2542ad6a0af8d2048fa0a9db69aa122"),
    ("near-free-n3", "validate", "text", "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("near-free-n3", "validate", "json", "e402613cb77db215c6a0d3d89b0326769f3ac8dc983d2061e5ade1a53fdaca20"),
    ("near-free-n3", "h1", "text", "07eb2d93cf294fea33a9b94d6070651987a478374fee309b85e2bb5c9ad33748"),
    ("near-free-n3", "h1", "json", "7c8ea0042fe012ac2a221327cf68b7e57b5e5e7cfbe74ba86ad0d33ff5baaed0"),
    ("near-free-n3", "h2 --coeff-rank 2", "text", "d408b865645d8f202086c7cccb8d508e47349bafdbc56855d6cfa43ec071ce5c"),
    ("near-free-n3", "h2 --coeff-rank 2", "json", "d250c3f71a595140cd4afe6b9c05482d8370f60e27aedc9621f5cebab033804d"),
    ("near-free-n3", "homology-rank", "text", "8fc0093dab9abe6a3e5aadddc8b3b666eb69b70f2ea94fdfcc6750ed2c7252ea"),
    ("near-free-n3", "homology-rank", "json", "cdd1d55c52cbddcd413145e5c3b3603c862a5b95e17bb52bac6237a576e736e8"),
    ("near-free-n4", "validate", "text", "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("near-free-n4", "validate", "json", "81ce89e290ee265f3f40e74316cf0c5e10abdc46a90e2ced5d20dc71e1f04755"),
    ("near-free-n4", "h1", "text", "fb30f6f0b7169f1b702102785657fa4d56681e62843d42b40b6534b5a03ecd9c"),
    ("near-free-n4", "h1", "json", "9bd2b99581302e201d016b9392c21c36865c35bd27091a6669255213e441a3a0"),
    ("near-free-n4", "h2 --coeff-rank 2", "text", "1805ba36c1930e818dbc8f6509c7cd2ea9e1fb8ee4feabb3a67b089ea98f4eae"),
    ("near-free-n4", "h2 --coeff-rank 2", "json", "45ac298ef807d9c41a7e022fbcb77d37dafd5f98fd49925d05b35bf83beb321f"),
    ("near-free-n4", "homology-rank", "text", "cb266e2934256895090a8127105a6a0d29a5beee622c9e2f47720c64a84eb7da"),
    ("near-free-n4", "homology-rank", "json", "9559c96cf1390b4190412b13aaf23d546d97c8a66db81a003b75b040ba44a15b"),
    ("dheis-2", "validate", "text", "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("dheis-2", "validate", "json", "10a8a8360de1ad3697de0351a9e420fa24bfbbfb4e9ee0d0882759e5d5579173"),
    ("dheis-2", "h1", "text", "bca37fae7c7cfe69a1034a0ea1b04c0b6515ac47dddc2f023e67846c31af7196"),
    ("dheis-2", "h1", "json", "d3464a409de085573edc3125eba9ecd4841ea4288fb7a282e2e1ee50a3d2a218"),
    ("dheis-2", "h2 --coeff-rank 2", "text", "f95421868cdb0990a8f695a61d1e288fe888532b163900e39fa8577f307cc300"),
    ("dheis-2", "h2 --coeff-rank 2", "json", "ead1f372c53bd8ce33d7549890a583e6eec1294c023b2dabe4640ffd512b7165"),
    ("dheis-2", "homology-rank", "text", "bad015426298905e57506b44eb1a521b68ec2f8b4eb5b7110c5d1ef8c36037df"),
    ("dheis-2", "homology-rank", "json", "9465b3ad248400b5951fd76199c5ceca2b2db3ddfdb879988569d1644ca393aa"),
    ("dheis-3", "validate", "text", "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("dheis-3", "validate", "json", "31e1600e4a84f2f34bd1910564c9d74074abefd1c51c94da511cc1d60aa21c76"),
    ("dheis-3", "h1", "text", "bca37fae7c7cfe69a1034a0ea1b04c0b6515ac47dddc2f023e67846c31af7196"),
    ("dheis-3", "h1", "json", "53822e2ed662ccdac697cd56d8d97af66b784b42fc54925717059413e4cc59f3"),
    ("dheis-3", "h2 --coeff-rank 2", "text", "2b8b2ae0da42832439b6854805555808b22d4eebb27ac20d80dfe723d977643f"),
    ("dheis-3", "h2 --coeff-rank 2", "json", "ec9cd99b05de2ec965f3d8daaccdbcba2ec9498ec9b505d00259dcdbf16d4935"),
    ("dheis-3", "homology-rank", "text", "bad015426298905e57506b44eb1a521b68ec2f8b4eb5b7110c5d1ef8c36037df"),
    ("dheis-3", "homology-rank", "json", "015175ba2f5aa2ef66377b4d3b624d967acc23181d86acd0ae995309a320b699"),
    ("dheis-4", "validate", "text", "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("dheis-4", "validate", "json", "26554e286e86a2877f387aa4b8d6f876dbfa8e5fabf168d8b0ea82a03126608f"),
    ("dheis-4", "h1", "text", "bca37fae7c7cfe69a1034a0ea1b04c0b6515ac47dddc2f023e67846c31af7196"),
    ("dheis-4", "h1", "json", "93d38656e30e4076f9ce8a8adbf1ad9df01be5f450a95e779a116ac568585f33"),
    ("dheis-4", "h2 --coeff-rank 2", "text", "4f5c78ef23f5a2833a3ea0a58621203f1d97d87b3b573b6563d48dac73c133f8"),
    ("dheis-4", "h2 --coeff-rank 2", "json", "4b738f80ceb0b937662b277aabb48c1fd23d1a16f6fad845ffb3df1d461e2982"),
    ("dheis-4", "homology-rank", "text", "bad015426298905e57506b44eb1a521b68ec2f8b4eb5b7110c5d1ef8c36037df"),
    ("dheis-4", "homology-rank", "json", "362678e464b02c675865f3a3fa87f345f3050d035d87e82a12620dd2a09d5bd3"),
    ("dheis-5", "validate", "text", "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("dheis-5", "validate", "json", "93d588de7cc36e0cd8af7c7f99752f2bfdc4de557f85c4c4f838dac012f18d82"),
    ("dheis-5", "h1", "text", "bca37fae7c7cfe69a1034a0ea1b04c0b6515ac47dddc2f023e67846c31af7196"),
    ("dheis-5", "h1", "json", "0c16740dbed03585fbc8168445f2333a2dc1757da2ad07bf0410fb7bd7ca7f7c"),
    ("dheis-5", "h2 --coeff-rank 2", "text", "0cc59a9a853a42b1d2829bd21044183f81df6fc08416be7e58a91142bf8251c1"),
    ("dheis-5", "h2 --coeff-rank 2", "json", "6d519bc711d773c4d2e92f0ec907f9f07912cbd9728c6fc7bbfeea16775561ea"),
    ("dheis-5", "homology-rank", "text", "bad015426298905e57506b44eb1a521b68ec2f8b4eb5b7110c5d1ef8c36037df"),
    ("dheis-5", "homology-rank", "json", "9a8c0eecc579d42847767c18f935b67e7744de25a08120561481d3e5001b7f30"),
    ("chain-2-6", "validate", "text", "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("chain-2-6", "validate", "json", "260459b6ecf939b982c3e6234444a57a34cd034b92860fc0811c99f959542ff1"),
    ("chain-2-6", "h1", "text", "fb30f6f0b7169f1b702102785657fa4d56681e62843d42b40b6534b5a03ecd9c"),
    ("chain-2-6", "h1", "json", "0567871cfea30f3e3297a1a58af1cd2f30df999c957cf35d918a0b3d7ed287ff"),
    ("chain-2-6", "h2 --coeff-rank 2", "text", "68c589f8545ba85244e627af635420a3472e9b6219e529b6f40214fc69eb0592"),
    ("chain-2-6", "h2 --coeff-rank 2", "json", "bab3d13ec677f4e32ce33beec9ec6b862ce2d7856bcdcd461b806b5380591e6e"),
    ("chain-2-6", "homology-rank", "text", "9f25f0854af5e83f77e24486f9988fa70cb02539ebe033e2b8757764bdc32769"),
    ("chain-2-6", "homology-rank", "json", "a19596e1ea3445f777413ea73cad99b9b45bfb64a8558ced2e62d65d870027ce"),
    ("chain-3-3-6", "validate", "text", "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("chain-3-3-6", "validate", "json", "05d90b20120462f5e3b15ddef8c1dc98b1540ba58af96b74287ff581d8c76b40"),
    ("chain-3-3-6", "h1", "text", "9c313985b7d1c7a6ec1e861f4430f12833b1fb308521e3f65fcfef7dcc58bdd6"),
    ("chain-3-3-6", "h1", "json", "bf225b230d66a269e7ee9f8761ca5a7b811cd4e7bbf126126760fef25de595c7"),
    ("chain-3-3-6", "h2 --coeff-rank 2", "text", "bda428f2e38c61a34fa365b8b404c24912376ffe060dc465d4ab6a7ffe53a5cf"),
    ("chain-3-3-6", "h2 --coeff-rank 2", "json", "aa5c0223e65b2ef1e4276e7194c727cba16601ce25855dd259541008d8b44e95"),
    ("chain-3-3-6", "homology-rank", "text", "4b06dda86774e9c0bcecc32719b234d282e14c01ea3cf557b53cb7dae9116011"),
    ("chain-3-3-6", "homology-rank", "json", "b7c4d55f45cdcdd7fb83cffee036962486a7d75858b45c535f339bde5cb2b954"),
    ("near-free-n3-2026003", "validate", "text", "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("near-free-n3-2026003", "validate", "json", "732d1481fc9342d40a7bcc123edef37378d2c4caa3f39d92c51051dc682ab6f8"),
    ("near-free-n3-2026003", "h1", "text", "07eb2d93cf294fea33a9b94d6070651987a478374fee309b85e2bb5c9ad33748"),
    ("near-free-n3-2026003", "h1", "json", "82fc669f15230159602e2de88765b784e0df0563cdd258c2a2254e88a1f86f36"),
    ("near-free-n3-2026003", "h2 --coeff-rank 2", "text", "260dc90fd6e4a5f9918ab2aa4e13d3205ed534e62d4adc1743c0813083266cb8"),
    ("near-free-n3-2026003", "h2 --coeff-rank 2", "json", "b3386ea226c280c00be5f24e8bdf3c0db243a1fbaec88d989cfa9a9199da312c"),
    ("near-free-n3-2026003", "homology-rank", "text", "8fc0093dab9abe6a3e5aadddc8b3b666eb69b70f2ea94fdfcc6750ed2c7252ea"),
    ("near-free-n3-2026003", "homology-rank", "json", "85631b3389f3b0c9ca1d068a425834d63af5fff0cb9432a115479fcc18827a1c"),
    ("near-free-n5-2026005", "validate", "text", "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("near-free-n5-2026005", "validate", "json", "369a5bd3feea6decf399bafbc7c1abcdd4b663a864eb8f34337b46c74262f58b"),
    ("near-free-n5-2026005", "h1", "text", "90b3b56068d5ab1b1f1c583451f551b2dd1cef5070488f79cb0bbbb22ada6352"),
    ("near-free-n5-2026005", "h1", "json", "b3aac2624235acd9dc957b7d39218fb22bdc57a7b6dd63922cea1d82303afe2a"),
    ("near-free-n5-2026005", "h2 --coeff-rank 2", "text", "4e80f68e5a913e56c626cd2d26f46be8a6e437b308b5471c30aadc825a55a04e"),
    ("near-free-n5-2026005", "h2 --coeff-rank 2", "json", "7b25f0f19ba711764ff8e5d02f8c6266653af51db8d78652da47ccaa739ad2e2"),
    ("near-free-n5-2026005", "homology-rank", "text", "c875028401e625fc2eabedccb920dd6bd4a75274f21fd7b072e6b7e746203b87"),
    ("near-free-n5-2026005", "homology-rank", "json", "f8f5ccec53a98fd438b243a8113e4f9fd7cfdfcd05c344a162fb96c4babb7e15"),
    ("near-free-n5-2026005", "h2", "text", "037e3587244431da08d6af8f8f198de453cc2f2f9db6f6eab6c8fb50b789fcb7"),
    ("near-free-n5-2026005", "h2", "json", "f6760aaf8301f762112083f886f25bce0b22861b79db77bf52efa608e1517eec"),
]


class TestPinnedReports:
    @pytest.mark.parametrize("group, command, fmt, sha", PINNED_REPORTS,
                             ids=["-".join(r[:3]) for r in PINNED_REPORTS])
    def test_stdout_bytes(self, group, command, fmt, sha):
        doc = json.dumps(presentation_to_json(PINNED_GROUPS[group])).encode()
        args = command.split()
        trials = ["--trials", "40"] if args[0] in ("verify", "extend") else []
        code, out, err = run_in_process(
            args + ["--format", fmt, "--seed", "1"] + trials, doc)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", PRESENTATION_COMMANDS)
    def test_invalid_presentation(self, command, fmt):
        # rank(c) = 1 < m = 2; only validate reports it on stdout
        doc = {"n": 3, "m": 2, "brackets": [{"i": 1, "j": 2, "y": [1, 2]}]}
        code, out, err = run_in_process([command, "--format", fmt],
                                        json.dumps(doc).encode())
        failure = "rank(c) = 1 < m = 2"
        if command != "validate":
            assert (code, out, err) == (1, "", failure + "\n")
        elif fmt == "text":
            assert (code, out, err) == (1, failure + "\ninvalid\n", "")
        else:
            assert (code, err) == (1, "")
            assert out == cli.dump_json({"group": doc, "valid": False,
                                         "failures": [failure]})

    def test_extend_builds_each_table_once(self):
        P = PINNED_GROUPS["near-free-n4"]
        doc = json.dumps(presentation_to_json(P)).encode()
        tables = mock.patch.object(cocycles, "_polys", wraps=cocycles._polys)
        x, y, sums = (spy_method(cls, "_table") for cls in (
            cocycles.CocycleLemmaX, cocycles.CocycleLemmaY, cocycles.CocycleSum))
        with tables as table_calls, x as x_calls, y as y_calls, sums as sum_calls:
            code, _, _ = run_in_process(["extend", "--trials", "5"], doc)
        assert code == 0
        assert table_calls.call_count == 1
        # one per fiber, none of them a sum
        assert x_calls.call_count + y_calls.call_count == 21
        assert sum_calls.call_count == 0

    def test_lemmax_tables_read_no_bracket(self):
        doc = json.dumps(presentation_to_json(families.abelian(6))).encode()
        with spy_method(cocycles.CocycleLemmaY, "_table") as lemmay_calls:
            code, out, _ = run_in_process(["cocycles"], doc)
        assert code == 0 and out.count("[lemmax, infinite order]") == 15
        assert lemmay_calls.call_count == 0

    @pytest.mark.parametrize("command", ["verify", "extend"])
    def test_proofs_sample_nothing(self, monkeypatch, command):
        calls = []

        def spy(owner, name):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: calls.append(name)
                                or fn(*args))

        for owner in (grouplaw, cocycles):   # cocycles imports them by name
            spy(owner, "multiply")
            spy(owner, "random_element")
        spy(cocycles.ExtensionGroup, "first_law_failure")
        doc = json.dumps(presentation_to_json(PINNED_GROUPS["near-free-n4"]))
        code, out, _ = run_in_process([command, "--trials", "100"],
                                      doc.encode())
        assert code == 0 and "PASS (proved)" in out
        assert calls == []


class TestReportShape:
    """A JSON report is {"group": <its input>, **record}, with the exit code
    of the text report on the same input."""

    RECORD_KEYS = {"validate": {"valid", "failures"},
                   "homology-rank": {"second_homology_rank"}}

    def check(self, command, P):
        doc = json.dumps(presentation_to_json(P)).encode()
        text_code, _, _ = run_in_process([command], doc)
        code, out, err = run_in_process([command, "--format", "json"], doc)
        assert (code, err) == (text_code, "")
        report = json.loads(out)
        assert set(report) == {"group"} | self.RECORD_KEYS.get(command,
                                                               {command})
        assert report["group"] == presentation_to_json(P)
        return report

    @pytest.mark.parametrize("group", sorted(PINNED_GROUPS))
    @pytest.mark.parametrize("command", PRESENTATION_COMMANDS)
    def test_pinned_groups(self, command, group):
        self.check(command, PINNED_GROUPS[group])

    def test_rejected_extension(self, monkeypatch):
        set_table_entry(monkeypatch, 0, (4,), 3)  # as the rejected-fiber test
        report = self.check("extend", families.heisenberg())
        assert report["extend"]["ok"] is False


class TestLazyText:
    """A report renders cocycles only for the text it writes."""

    @pytest.mark.parametrize("command, fmt", [
        ("cocycles", "json"), ("verify", "json"), ("extend", "json"),
        ("cocycles", "text")])
    def test_render_calls(self, monkeypatch, command, fmt):
        calls = []
        render = cocycles.render
        monkeypatch.setattr(cocycles, "render",
                            lambda P, w: calls.append(w) or render(P, w))
        doc = json.dumps(presentation_to_json(PINNED_GROUPS["near-free-n4"]))
        code, out, err = run_in_process([command, "--format", fmt],
                                        doc.encode())
        assert (code, err) == (0, "")
        if (command, fmt) == ("cocycles", "text"):
            assert len(calls) == len(out.splitlines()) > 1  # one per cocycle
        else:
            assert calls == []


class TestOneEliminationOfCT:
    """A command eliminates C^T at most once, and validates its input once."""

    @pytest.fixture
    def eliminated(self, monkeypatch):
        # every matrix that _smith eliminates, in order
        calls = []
        smith = exactlinalg._smith

        def spy(A, *args, **kwargs):
            calls.append(A)
            return smith(A, *args, **kwargs)

        monkeypatch.setattr(exactlinalg, "_smith", spy)
        return calls

    GROUPS = {"chain2-4-8": families.divisor_chain_group((2, 4, 8)),
              "near-free-n5": families.random_presentation(5, 10, 5, 1),
              "dheis6": families.discrete_heisenberg(6)}

    @pytest.mark.parametrize("group", sorted(GROUPS))
    @pytest.mark.parametrize("command", ["witness", "cocycles", "verify",
                                         "extend"])
    def test_command(self, eliminated, group, command):
        P = self.GROUPS[group]
        CT = bracket_matrix(P).transpose()
        doc = json.dumps(presentation_to_json(P)).encode()
        trials = ["--trials", "5"] if command in ("verify", "extend") else []
        code, out, err = run_in_process([command] + trials, doc)
        assert (code, err) == (0, "")
        count = sum(A == CT for A in eliminated)
        if command == "witness":
            # every torsion class got its certified witness
            assert count == 1
            assert out.count("= coboundary of u =") == len(
                [w for w in lemmax_generators(P) if w.order]) > 0
        else:
            assert count <= 1

    @pytest.mark.parametrize("command", ["cocycles", "verify", "extend",
                                         "witness", "h2"])
    def test_validates_once(self, monkeypatch, command):
        # drawn before the count starts: the draw validates its own object
        doc = json.dumps(presentation_to_json(
            families.random_presentation(5, 10, 5, 1))).encode()
        calls = []
        real = grouplaw.validate

        def counted(P):
            calls.append(P)
            return real(P)

        monkeypatch.setattr(grouplaw, "validate", counted)
        trials = ["--trials", "5"] if command in ("verify", "extend") else []
        code, _, _ = run_in_process([command] + trials, doc)
        assert code == 0
        assert len(calls) == 1


class TestExitCodes:
    def test_validation_failure_is_exit_1(self):
        res = run_cli(["validate"], stdin_text='{"n": 1, "m": 1}')
        assert res.returncode == 1
        assert "rank(c) = 0 < m = 1" in res.stdout
        assert "invalid" in res.stdout

    def test_valid_presentation_is_exit_0(self):
        res = run_cli(["validate"],
                      stdin_text='{"n": 3, "m": 0, "brackets": []}')
        assert res.returncode == 0
        assert res.stdout == "valid\n"

    def test_invalid_presentation_rejected_by_h2(self):
        res = run_cli(["h2"], stdin_text='{"n": 1, "m": 1}')
        assert res.returncode == 1
        assert "rank(c) = 0 < m = 1" in res.stderr

    @pytest.mark.parametrize("doc, failures", [
        ({"n": 1, "m": 1}, ["rank(c) = 0 < m = 1"]),
        ({"n": 2, "m": 1, "brackets": [{"i": 1, "j": 3, "y": [1]},
                                       {"i": 2, "j": 4, "y": [1]}]},
         ["bracket pair (1,3) out of range", "bracket pair (2,4) out of range"]),
    ], ids=["rank", "two-pairs"])
    def test_h2_prints_exactly_the_failures(self, doc, failures):
        res = run_cli(["h2"], stdin_text=json.dumps(doc))
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr.splitlines() == failures

    def test_malformed_json_is_exit_2(self):
        res = run_cli(["h2"], stdin_text="{not json")
        assert res.returncode == 2
        assert "malformed JSON" in res.stderr

    def test_schema_violation_names_field(self):
        res = run_cli(["h2"], stdin_text='{"n": 2}')
        assert res.returncode == 2
        assert "'m'" in res.stderr

    def test_duplicate_bracket_is_exit_2(self):
        doc = {"n": 2, "m": 1, "brackets": [
            {"i": 1, "j": 2, "y": [1]}, {"i": 1, "j": 2, "y": [2]}]}
        res = run_cli(["validate"], stdin_text=json.dumps(doc))
        assert res.returncode == 2
        assert "duplicate bracket pair (1,2)" in res.stderr

    @pytest.mark.parametrize("command", PRESENTATION_COMMANDS)
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("doc, key", [
        ('{"n": 2, "m": 1, "brackets": [{"i": 1, "j": 2, "y": [1], "y": [2]}]}',
         "y"),
        ('{"n": 2, "m": 1, "m": 0, "brackets": []}', "m"),
    ], ids=["bracket-y", "top-level-m"])
    def test_repeated_key_is_exit_2(self, doc, key, fmt, command):
        # json.loads alone keeps the last value: y = [2], or m = 0
        code, out, err = run_in_process([command, "--format", fmt],
                                        doc.encode())
        assert (code, out) == (2, "")
        assert err == "error: malformed JSON: repeated key '%s'\n" % key

    def test_unreadable_file_is_exit_2(self):
        res = run_cli(["h2", "--input", "/nonexistent/path.json"])
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

    def test_closed_stdin_is_exit_2(self):
        # the shell's <&- starts the process with file descriptor 0 closed
        res = subprocess.run(["sh", "-c", '"$0" -m nilcoh h2 <&-',
                              sys.executable], capture_output=True, text=True)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error:")
        assert len(res.stderr.splitlines()) == 1

    def test_gen_inconsistent_flags_is_exit_2(self):
        res = run_cli(["gen", "--family", "paper-example", "--n", "3",
                       "--d", "2,4"])
        assert res.returncode == 2
        assert "--n disagrees" in res.stderr

    def test_gen_missing_family_is_exit_2(self):
        res = run_cli(["gen"])
        assert res.returncode == 2

    @pytest.mark.parametrize("args", [
        ["h2", "--coeff-rank", "-1"],
        ["h2", "--coeff-rank", "4097"],
        ["h2", "--coeff-rank", "1000000"],
        ["h1", "--coeff-rank", "1000000000"],
        ["verify", "--trials", "-1"],
        ["extend", "--trials", "-1"],
        ["gen", "--family", "random", "--n", "2", "--m", "3"],
        ["gen", "--family", "random", "--n", "19", "--m", "172"],
        ["gen", "--family", "paper-example", "--d", "0,2"],
        ["gen", "--family", "abelian", "--n", "-1"],
        ["gen", "--family", "paper-example", "--d", "1,,2"],
        ["gen", "--family", "paper-example", "--d", "a"],
        ["gen", "--family", "paper-example", "--d", ""],
    ], ids=" ".join)
    def test_out_of_range_flag_is_exit_2(self, args):
        doc = json.dumps(presentation_to_json(families.heisenberg()))
        res = run_cli(args, stdin_text=doc)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert sum("error:" in line for line in res.stderr.splitlines()) == 1
        # the message names no private function of the program
        assert not re.search(r"(?<!\w)_\w", res.stderr), res.stderr

    @pytest.mark.parametrize("args", [
        ["h2", "--trials", "7", "--bound", "3"],
        ["h2", "--trials", "7"],
        ["h2", "--bound", "3"],
        ["h2", "--max-weight", "5"],
        ["witness", "--max-weight", "13"],
        ["witness", "--bound", "3"],
        ["verify", "--bound", "3"],
        ["extend", "--bound", "3"],
        ["witness", "--trials", "0"],
        ["cocycles", "--trials", "5"],
        ["validate", "--coeff-rank", "2"],
        ["verify", "--coeff-rank", "2"],
        ["gen", "--family", "heisenberg", "--format", "json"],
        ["gen", "--family", "heisenberg", "--input", "x.json"],
        ["selftest", "--seed", "1"],
    ], ids=" ".join)
    def test_flag_of_another_command_is_exit_2(self, args):
        doc = json.dumps(presentation_to_json(families.heisenberg()))
        res = run_cli(args, stdin_text=doc)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert sum("error:" in line for line in res.stderr.splitlines()) == 1
        # the command's own usage, which lists the flags it does take
        assert res.stderr.startswith("usage: nilcoh %s [-h]" % args[0])

    @pytest.mark.parametrize("command", PRESENTATION_COMMANDS)
    def test_every_command_that_reads_input_takes_seed(self, command,
                                                       chain_file):
        res = run_cli([command, "--input", chain_file, "--seed", "3"]
                      + (["--trials", "5"] if command in ("verify", "extend")
                         else []))
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("source", ["stdin", "file"])
    @pytest.mark.parametrize("doc", [
        b"\xff\xfe{}",
        b"[" * 100000 + b"]" * 100000,
        b'{"n": ' + b"1" * 5000 + b', "m": 0}',
    ], ids=["not-utf8", "nested-100000-deep", "5000-digit-integer"])
    def test_undecodable_document_is_exit_2(self, doc, source, tmp_path):
        args = [sys.executable, "-m", "nilcoh", "h2"]
        if source == "file":
            path = tmp_path / "doc.json"
            path.write_bytes(doc)
            res = subprocess.run(args + ["--input", str(path)],
                                 capture_output=True)
        else:
            res = subprocess.run(args, input=doc, capture_output=True)
        err = res.stderr.decode("utf-8")
        assert res.returncode == 2
        assert res.stdout == b""
        assert "Traceback" not in err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    # brackets 10^2500 x_5 and (2500 threes) x_6: the torsion order, their
    # product, has 5000 digits, past the interpreter's default limit (4300)
    # on int -> str, while no input integer is
    BIG_ORDER = "3" * 2500 + "0" * 2500
    BIG_ORDER_DOC = json.dumps({"n": 4, "m": 2, "brackets": [
        {"i": 1, "j": 2, "y": [10 ** 2500, 0]},
        {"i": 3, "j": 4, "y": [0, int("3" * 2500)]}]})

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", LEMMAX_COMMANDS + ["h2"])
    def test_answer_past_the_digit_limit_prints_in_full(self, command, fmt):
        res = run_cli([command, "--format", fmt], stdin_text=self.BIG_ORDER_DOC)
        assert (res.returncode, res.stderr) == (0, "")
        if command in ("h2", "cocycles", "witness"):   # these print the order
            assert self.BIG_ORDER in res.stdout

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="Python before 3.10.7 has no digit limit")
    def test_in_process_run_restores_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_in_process(["h2"], self.BIG_ORDER_DOC.encode())
        assert (code, err) == (0, "") and self.BIG_ORDER in out
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("command, n", [("h2", 3000000),
                                            ("cocycles", 3000)])
    def test_huge_input_is_refused_up_front(self, command, n):
        # enumerating the C(n,2) pairs alone would run for minutes
        start = time.perf_counter()
        res = subprocess.run([sys.executable, "-m", "nilcoh", command],
                             input='{"n": %d, "m": 0}' % n, capture_output=True,
                             text=True, timeout=20)
        assert time.perf_counter() - start < 2
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("error: presentation too large: n + m = %d "
                              "generators, the limit is %d\n"
                              % (n, cli._MAX_GENERATORS))

    @pytest.mark.parametrize("command", LEMMAX_COMMANDS)
    def test_large_lift_block_is_refused_up_front(self, command):
        # abelian(120): a 7140 x 7140 lift block, 12 s and 829 MB to build
        start = time.perf_counter()
        res = run_cli([command], stdin_text='{"n": 120, "m": 0}')
        assert time.perf_counter() - start < 1
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == (
            "error: presentation too large: the LemmaX lifts are a 7140 x 7140 "
            "block, the limit is %d entries\n" % cli._MAX_LIFT_BLOCK)

    @pytest.mark.parametrize("command", LEMMAX_COMMANDS)
    @pytest.mark.parametrize("doc, shape", [
        ('{"n": 120, "m": 0}', "7140 x 7140"),
        ('{"n": 120, "m": 1, "brackets": [{"i": 1, "j": 2, "y": [1]}]}',
         "7140 x 7139")], ids=["m0", "m1"])
    def test_refusal_runs_no_elimination(self, monkeypatch, command, doc, shape):
        calls = []

        def spy(name):
            def refuse(*args):
                calls.append(name)
                raise AssertionError("%s ran on a refused input" % name)
            return refuse

        monkeypatch.setattr(exactlinalg, "_smith", spy("_smith"))
        monkeypatch.setattr(exactlinalg, "cokernel", spy("cokernel"))
        monkeypatch.setattr(cocycles, "cokernel", spy("cokernel"))
        code, out, err = run_in_process([command], doc.encode())
        assert (code, out, calls) == (2, "", [])
        assert "lifts are a %s block" % shape in err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", LEMMAX_COMMANDS)
    def test_invalid_input_is_reported_before_the_block(self, command):
        # n = 120, m = 1 would be refused, but it is invalid first
        code, out, err = run_in_process([command], b'{"n": 120, "m": 1}')
        assert (code, out) == (1, "")
        assert err == "rank(c) = 0 < m = 1\n"

    def test_input_just_under_the_limit_is_served(self):
        # abelian(80)'s 3160 x 3160 block is the largest abelian one served
        assert comb(80, 2) ** 2 <= cli._MAX_LIFT_BLOCK < comb(81, 2) ** 2
        res = run_cli(["witness"], stdin_text='{"n": 80, "m": 0}')
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == "no torsion classes; nothing to search\n"
        res = run_cli(["witness"], stdin_text='{"n": 81, "m": 0}')
        assert res.returncode == 2
        assert "3240 x 3240 block" in res.stderr

    @pytest.mark.parametrize("flags, size", [
        (["abelian", "--n", "300"], 300),
        (["random", "--n", "400", "--m", "1"], 401),
        (["paper-example", "--d", ",".join(["1"] * 100)], 201)])
    def test_gen_refuses_a_presentation_too_large(self, flags, size):
        # refused before any bracket is built or validated
        start = time.perf_counter()
        res = run_cli(["gen", "--family"] + flags)
        assert time.perf_counter() - start < 2
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("error: presentation too large: n + m = %d "
                              "generators, the limit is %d\n"
                              % (size, cli._MAX_GENERATORS))

    def test_gen_at_the_limit_is_accepted(self):
        gen = run_cli(["gen", "--family", "abelian", "--n", "200"])
        assert gen.returncode == 0
        res = run_cli(["validate"], stdin_text=gen.stdout)
        assert (res.returncode, res.stdout) == (0, "valid\n")

    def test_out_of_memory_is_exit_2(self):
        # as h2 on an input too large for memory would
        doc = json.dumps(presentation_to_json(families.heisenberg())).encode()
        with mock.patch.object(cli, "h2", side_effect=MemoryError):
            code, out, err = run_in_process(["h2"], doc)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def run_in_process(args, stdin=b""):
    """cli.main on bytes for stdin; returns (exit code, stdout, stderr).

    An exception other than SystemExit escapes, as a traceback would.
    """
    out, err = io.StringIO(), io.StringIO()
    fake_stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    with mock.patch.object(sys, "stdin", fake_stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# small integers keep every document that happens to parse cheap to analyse
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6)
    | st.floats(allow_nan=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "m", "brackets", "i", "j", "y"])
        | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)

valid_documents = st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, comb(n, 2)),
                        st.integers(1, 3), st.integers(0, 99))).map(
    lambda a: json.dumps(presentation_to_json(
        families.random_presentation(*a))).encode())

documents = (st.binary(max_size=48)
             | json_values.map(lambda v: json.dumps(v).encode())
             | valid_documents)

flags = st.lists(st.sampled_from([
    ["--coeff-rank", "0"], ["--coeff-rank", "2"], ["--coeff-rank", "-1"],
    ["--coeff-rank", "4096"], ["--coeff-rank", "4097"],
    ["--format", "json"], ["--format", "xml"], ["--seed", "5"],
    ["--bound", "x"], ["--unknown"]]), max_size=2).map(
    lambda parts: [f for part in parts for f in part])


class TestFuzz:
    """In-process fuzzing of the exit-code contract: 0, 1 or 2, never a traceback."""

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from(["validate", "h1", "h2", "homology-rank"]),
           documents, flags)
    def test_documents_and_flags(self, command, doc, extra):
        code, _, err = run_in_process([command] + extra, doc)
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(["paper-example", "heisenberg", "abelian",
                            "random", "klein"]),
           st.fixed_dictionaries({}, optional={
               "--n": st.integers(-1, 5).map(str),
               "--m": st.integers(-1, 6).map(str),
               "--d": st.lists(st.integers(-1, 6), max_size=3).map(
                   lambda d: ",".join(map(str, d))),
               "--bound": st.integers(0, 3).map(str),
               "--seed": st.integers(0, 9).map(str)}))
    def test_gen_output_validates(self, family, options):
        args = ["gen", "--family", family]
        for flag, value in options.items():
            args += [flag, value]
        code, out, err = run_in_process(args)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            assert run_in_process(["validate"], out.encode()) == (0, "valid\n", "")


def load_perfbench(name):
    """The benchmark script perfbench/NAME.py, loaded as a module."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", name + ".py")
    spec = importlib.util.spec_from_file_location("nilcoh_perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps these names; one that is gone would crash
    # every traced run
    tracer = load_perfbench("tracer")
    assert tracer.TARGETS
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracer.TARGETS if not hasattr(owner, attr)]
    assert missing == []


# SHA-256 over (op id, format, exit code, stdout) of every operation of a
# workload's seed-2026 plan, in text and in JSON: a refactor keeps them
BENCHMARK_PLAN_SHA = {
    "ladder-h2":
        "e7b620a669e50cd381aa5c2e15d355873d26ad7e97a9a4246c6f9df3bb10f4f2",
    "near-free-sampling":
        "fcd8e947e0839593948a584009036ad1f07a399b4ecad408b814be4ff295fe6b",
    "torsion-witness":
        "57d4badc0cbbbabe4d21a7e02886366653d3293f078b557a0b7db2173597afb1",
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_PLAN_SHA))
def test_benchmark_reports_pass_their_checks(monkeypatch, tmp_path, workload):
    # every operation of the benchmark's seed-2026 plan, in process: a
    # report that perfbench/run.py's check_report refuses fails the run,
    # and the text and JSON reports of the plan hash to the pinned value
    workloads = load_perfbench("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # run.py's import
    bench = load_perfbench("run")
    plan = workloads.plan(workload, 2026)
    workloads.write_inputs(workload, 2026, str(tmp_path))
    chains = {p["name"]: tuple(p["args"]["d"])
              for p in plan["presentations"] if p["family"] == "chain"}
    facts, digest = {}, hashlib.sha256()
    for op in plan["ops"]:
        path = str(tmp_path / (op["pres"] + ".json"))
        for fmt in ("text", "json"):
            code, out, err = run_in_process(
                op["args"] + ["--input", path, "--format", fmt])
            assert (code, err) == (0, ""), op["id"]
            digest.update(json.dumps([op["id"], fmt, code, out]).encode())
            if fmt == "text":
                assert bench.check_report(op, out, facts, chains) is None, op["id"]
    assert digest.hexdigest() == BENCHMARK_PLAN_SHA[workload]


# Runs ``python -m nilcoh`` in this process through runpy, then prints the
# nilcoh modules that the command loaded as the last stdout line.
_LOADED_BY_COMMAND = """
import json, runpy, sys
sys.argv = ["nilcoh"] + sys.argv[1:]
try:
    runpy.run_module("nilcoh", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(name for name in sys.modules
                        if name == "nilcoh" or name.startswith("nilcoh."))))
"""


class TestColdStart:
    """A CLI process imports only the modules its command runs."""

    COLD_PATH = {"nilcoh", "nilcoh.__main__", "nilcoh.cli", "nilcoh.grouplaw",
                 "nilcoh.exactlinalg", "nilcoh.cohomology"}

    @pytest.mark.parametrize("command", ["h2", "validate", "h1", "homology-rank",
                                         *LEMMAX_COMMANDS])
    def test_command_loads_only_the_cold_path(self, command, chain_file):
        res = subprocess.run([sys.executable, "-c", _LOADED_BY_COMMAND,
                              command, "--input", chain_file],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        loaded = set(json.loads(res.stdout.splitlines()[-1]))
        # the LemmaX commands load the cold path and cocycles, nothing more
        extra = {"nilcoh.cocycles"} if command in LEMMAX_COMMANDS else set()
        assert {"nilcoh.cli"} | extra <= loaded
        assert loaded <= self.COLD_PATH | extra

    def test_package_import_defers_only_cocycles_and_families(self):
        # the grouplaw and cohomology names are plain imports, which every
        # command loads anyway; a cocycles name or families loads its module
        probe = ("import json, sys\n"
                 "def loaded():\n"
                 "    print(json.dumps(sorted(name for name in sys.modules\n"
                 "        if name == 'nilcoh' or name.startswith('nilcoh.'))))\n"
                 "import nilcoh; loaded()\n"
                 "nilcoh.render; loaded()\n"
                 "nilcoh.families; loaded()\n")
        res = subprocess.run([sys.executable, "-c", probe],
                             capture_output=True, text=True, check=True)
        plain = {"nilcoh", "nilcoh.grouplaw", "nilcoh.exactlinalg",
                 "nilcoh.cohomology"}
        assert [set(json.loads(line)) for line in res.stdout.splitlines()] == [
            plain, plain | {"nilcoh.cocycles"},
            plain | {"nilcoh.cocycles", "nilcoh.families"}]

    def test_no_module_imports_dataclasses(self):
        import nilcoh
        names = sorted("nilcoh." + path[:-3]
                       for path in os.listdir(nilcoh.__path__[0])
                       if path.endswith(".py") and path != "__init__.py")
        assert "nilcoh.cocycles" in names and "nilcoh.acceptance" in names
        probe = "import sys; %s; print('dataclasses' in sys.modules)"
        bare = subprocess.run([sys.executable, "-c", probe % "pass"],
                              capture_output=True, text=True, check=True)
        full = subprocess.run([sys.executable, "-c",
                               probe % "; ".join("import " + n for n in names)],
                              capture_output=True, text=True, check=True)
        assert full.stdout == bare.stdout

    def test_traced_command_wraps_lazily_imported_functions(self, chain_file,
                                                            tmp_path):
        # the tracer replaces module attributes, which a command's import
        # inside a function reads when it runs
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = tmp_path / "trace.json"
        res = subprocess.run([sys.executable,
                              os.path.join(root, "perfbench", "tracer.py"),
                              str(out), "cocycles", "--input", chain_file],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == run_cli(["cocycles", "--input", chain_file]).stdout
        stats = json.loads(out.read_text())["stats"]
        assert stats["cocycles.generators"][0] == 2
        assert stats["cocycles.render"][0] >= 1
