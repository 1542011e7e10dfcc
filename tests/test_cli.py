import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from schur_ed import cli, edcalc, numth, polyq, qforms
from schur_ed.covers import CoverElem, VerificationError

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cover_verify_pass(capsys):
    code, out, _ = run(capsys, "cover", "verify", "-n", "5",
                       "--variant", "minus")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["order"] == 240
    assert all(r["ok"] for r in data["relations"])


def test_cover_verify_usage_error(capsys):
    code, _, err = run(capsys, "cover", "verify", "-n", "3")
    assert code == 2
    assert "4 <= n" in err


def test_cover_verify_fault_injection(capsys, monkeypatch):
    from schur_ed import covers

    real = covers.verify_presentation

    def faulty(spec, **kwargs):
        cov = covers.get_cover(spec)

        def bad_mul(g, h):
            out = cov.mul(g, h)
            if h.perm[0] != 1:
                out = CoverElem(out.eps ^ 1, out.perm)
            return out

        kwargs["mul_fn"] = bad_mul
        return real(spec, **kwargs)

    monkeypatch.setattr(cli, "verify_presentation", faulty)
    code, out, _ = run(capsys, "cover", "verify", "-n", "4")
    assert code == 1
    data = json.loads(out)
    failing = [r["relation"] for r in data["relations"] if not r["ok"]]
    assert failing


# stdout recorded while the order still came from a closure under cover
# multiplication, one product per element and generator, with z a generator
COVER_VERIFY_SHA256 = {
    (4, "plus"):
        "50b5268b943ca478103bcf1cf9706f4354d2aa141891107dad28f14628eee332",
    (5, "plus"):
        "a9e6c4514e571858da4c02094e2f1aef4da75157e3d451b373681430fa9057dd",
    (6, "plus"):
        "89a6fae675499b839f44e06d360e28d1e769f7ff6b085ac9943bb1660f7f98f0",
    (7, "plus"):
        "1858d70505fd788be2b7f5aa56758f54e6786fb41abd615b000868c1dd1bc86d",
    (8, "plus"):
        "6dba6cc029821c8e0462dae27270fc88c8f21c0ce0deb06960661fbfa4336806",
    (4, "minus"):
        "14c4df0be78f7c5b82fc0f379f40dbb9933c3313f3a9b367fe3ddc118a2e834f",
    (5, "minus"):
        "0844f88ed4c249b835ab8728b661ffe1df58c1941a11ed39335a9145a8194ef9",
    (6, "minus"):
        "de34f07133cd33af599180dbc6ced25195f0917545bf261cef9bb24bc7064477",
    (7, "minus"):
        "6506d35bca32158299daa533794fa06ef5f66a0346f3d006172a0ce9b6fa67bf",
    (8, "minus"):
        "35294929d391490891a63c2e1fa4928f29b28eb1367372780f425cd38228be1c",
}


@pytest.mark.parametrize("n, variant", sorted(COVER_VERIFY_SHA256))
def test_cover_verify_json_is_unchanged(capsys, n, variant):
    code, out, _ = run(capsys, "cover", "verify", "-n", str(n),
                       "--variant", variant)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == COVER_VERIFY_SHA256[n, variant])


def test_cover_verify_size_bound_exit_code(capsys):
    assert run(capsys, "cover", "verify", "-n", "6",
               "--size-bound", "1000") == (
        3, "", "resource bound exceeded: closure exceeded 1000 elements\n")


def test_table1_tsv_byte_exact(capsys):
    code, out, _ = run(capsys, "table1", "--n-max", "16", "--format", "tsv")
    assert code == 0
    expected = (
        "n\t4\t5\t6\t7\t8\t9\t10\t11\t12\t13\t14\t15\t16\n"
        "ed(A_n)\t2\t2\t3\t4\t4-5\t4-6\t5-7\t6-8\t6-9\t6-10\t7-11\t8-12\t8-13\n"
        "ed(cover A_n; 2)\t2\t2\t2\t2\t8\t8\t8\t8\t16\t16\t32\t32\t128\n"
        "ed(cover A_n)\t2\t2\t4\t4\t8\t8-14\t8-15\t8-16\t16-25\t16-26"
        "\t32-43\t32-44\t128\n"
    )
    assert out == expected


def test_table1_verifies_up_to_16(capsys):
    code, out, _ = run(capsys, "table1", "--verify-max", "16",
                       "--variant", "minus")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] == {str(n): int(v) for n, v in zip(
        range(4, 17), data["ed(cover A_n; 2)"])}


def test_table1_row3_values(capsys):
    code, out, _ = run(capsys, "table1", "--n-max", "10")
    data = json.loads(out)
    row3 = data["ed(cover A_n)"]
    assert row3[4] == "8"      # n = 8 collapses
    assert row3[6] == "8-15"   # n = 10


def test_table1_mismatch_is_a_verification_failure(capsys, monkeypatch):
    assert run(capsys, "table1", "--workers", "2")[0] == 2
    real = edcalc.ed2_computed
    monkeypatch.setattr(
        edcalc, "ed2_computed",
        lambda n, *args: real(n, *args) * (2 if n == 6 else 1))
    with pytest.raises(edcalc.FormulaMismatch):
        edcalc.table1(8, verify_max=8)
    code, out, err = run(capsys, "table1", "--n-max", "8", "--verify-max",
                         "8")
    assert code == 1 and out == ""
    assert err == "verification failed at n=6: computed 4, formula 2\n"


@pytest.mark.parametrize("argv, message", [
    (["chartab", "-n", "3"], "covers are only considered for n >= 4"),
    (["chartab", "-n", "17"], "cover arithmetic is desk-scale: n <= 16"),
    (["ed2", "-n", "3"], "formulas assume n >= 4"),
    (["qform", "1,0"], "diagonal entries must be nonzero"),
    (["qform", "1,x"], "Invalid literal for Fraction: 'x'"),
    (["qform", "1/0"], "Fraction(1, 0)"),
    (["trace-form", "x^^2"], "cannot parse polynomial near '^^2'"),
    (["trace-form", "2x^2+1"], "factors must be monic of positive degree"),
    (["table1", "--verify-max", "17"], "computed values are capped at n = 16"),
])
def test_bad_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"usage error: {message}\n"


def test_bad_size_bound_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.SIZE_BOUND_ENV, "lots")
    code, _, err = run(capsys, "chartab", "-n", "4")
    assert code == 2 and err.startswith("usage error: ")


@pytest.mark.parametrize("bound", ["-5", "0"])
def test_size_bound_must_be_positive(capsys, monkeypatch, bound):
    usage = (2, "", "usage error: the size bound must be positive\n")
    assert run(capsys, "cover", "verify", "-n", "6",
               "--size-bound", bound) == usage
    monkeypatch.setenv(cli.SIZE_BOUND_ENV, bound)
    assert run(capsys, "chartab", "-n", "4") == usage
    assert run(capsys, "cover", "verify", "-n", "6") == usage


def test_negative_trials_is_a_usage_error(capsys):
    assert run(capsys, "trace-check", "-n", "5", "--trials", "-3") == (
        2, "", "usage error: --trials must be nonnegative\n")
    code, out, _ = run(capsys, "trace-check", "-n", "5", "--trials", "0")
    assert code == 0 and json.loads(out)["trials"] == 0


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal inconsistency")

    monkeypatch.setattr(cli, "dixon_character_table", broken)
    with pytest.raises(ValueError, match="internal inconsistency"):
        cli.main(["chartab", "-n", "4"])
    assert "usage error" not in capsys.readouterr().err


def test_ed2_computed(capsys):
    code, out, _ = run(capsys, "ed2", "-n", "6", "--which", "alt",
                       "--computed")
    assert code == 0
    data = json.loads(out)
    assert data["ed2_formula"] == data["ed2_computed"] == 2
    assert data["variant"] == "alt"
    assert (data["ed_lower"], data["ed_upper"]) == (4, 4)


def test_ed2_mismatch_is_a_typed_verification_failure(capsys, monkeypatch):
    assert issubclass(edcalc.FormulaMismatch, VerificationError)
    with pytest.raises(edcalc.FormulaMismatch):
        edcalc.EdReport(n=8, variant="alt", ed2_formula=8, ed2_computed=4,
                        ed_lower=8, ed_upper=8)
    monkeypatch.setattr(edcalc, "ed2_computed", lambda *args: 4)
    code, out, err = run(capsys, "ed2", "-n", "8", "--which", "alt",
                         "--computed")
    assert code == 1 and out == ""
    assert err == "verification failure: computed != formula (8) at n=8\n"


def test_ed2_formula_only_skips_computation(capsys):
    code, out, _ = run(capsys, "ed2", "-n", "16", "--which", "alt")
    assert code == 0
    data = json.loads(out)
    assert data["ed2_formula"] == 128
    assert data["ed2_computed"] == "skipped"


def test_chartab_subcommand(capsys):
    # the double cover of A_4 has order 24 with a 2-dimensional faithful irrep
    code, out, _ = run(capsys, "chartab", "-n", "4", "--subgroup", "alt")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 24
    assert data["degrees"] == [1, 1, 1, 2, 2, 2, 3]
    assert data["min_faithful_dim"] == 2
    # the Sylow preimage is the quaternion group
    code, out, _ = run(capsys, "chartab", "-n", "4", "--subgroup", "sylow2")
    data = json.loads(out)
    assert data["order"] == 16
    assert data["min_faithful_dim"] == 2


# stdout recorded while the alt and full groups still had builders of
# their own, apart from the Sylow one
CHARTAB_SUBGROUP_SHA256 = {
    ("alt", 5, "plus"):
        "ddc5e60060bd2d7f955d3da238cedd5e5e8d4af26eefb15b212da4a3d7ed3ec1",
    ("alt", 6, "plus"):
        "6ef58fd33c6e6365a5666ea76ec2cedf2ed48d7752f208efe5234f2b642b35c9",
    ("alt", 7, "plus"):
        "bdc737d66632de2ea2d2bd243447b98f23e97de74031ae3e09e3f39722e14934",
    ("full", 5, "plus"):
        "8230313dc22297ad1e9363611c899843ff45436036f6cdd4ff88d53f8bffcbc4",
    ("full", 6, "plus"):
        "180e2eeb9f506dd86b2688e250a23b9e454f33b6159b23ec4fd171190a694070",
    ("full", 7, "plus"):
        "ed5e1a0e6e81bb8dd3a95ab7f2b8e0f4e6aca24a4e12d6cc3b391d2d5fa996b7",
    ("alt", 5, "minus"):
        "8228beecf97a135da2aa0e1ca5c458140f51d90fd6c69b6a304c0b178b8ca77d",
    ("alt", 6, "minus"):
        "cbc1a92e9816aa8d2b1b7be507d13bb07528c6c42a6b248eb2fcfe9f3a5fb9d0",
    ("alt", 7, "minus"):
        "9f177563c81d2779307579f6703bb40dc1ade3496a60cb298b7d36c51c0937e9",
    ("full", 5, "minus"):
        "e53355ace280f21addf080b4b99983b4a44cc8e48d59c385be68a5d3e77d67aa",
    ("full", 6, "minus"):
        "2f040c7ddb2f2a23a1d0a4ea36dd7180fd5f1fb9ef6f18b79df00524c9503805",
    ("full", 7, "minus"):
        "b214c34277cd0a5e9d4bbf6cfbc297676284978fe47c90f21a818f5d80c51e36",
}


@pytest.mark.parametrize("subgroup, n, variant",
                         sorted(CHARTAB_SUBGROUP_SHA256))
def test_chartab_subgroup_json_is_unchanged(capsys, subgroup, n, variant):
    code, out, _ = run(capsys, "chartab", "-n", str(n), "--variant",
                       variant, "--subgroup", subgroup)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == CHARTAB_SUBGROUP_SHA256[subgroup, n, variant])


# stdout of `ed2 --computed` recorded while the 2-local value came from
# Dixon's whole character table
ED2_COMPUTED_SHA256 = {
    (4, "sym", "plus"):
        "a66a510cd874f77cbc92cebf7987729fd81eb8adf76bdd6bec6fb258a4339e16",
    (5, "sym", "plus"):
        "b052102385b7c51cb9fe381dea8275adecaaadfcfc410fa7916b082dd5ab6dde",
    (6, "sym", "plus"):
        "ebc4eead2b389e84085d2f2486e023346adbee690c3374533f35a402aab5533c",
    (7, "sym", "plus"):
        "557d735ee1e5a0b05cd87edf4746f224cbeffd31ebeb31e827710a1910576301",
    (8, "sym", "plus"):
        "65b26175cbd740cb050eaf41701d0ddc727803c683a2c4922a48650d5a944761",
    (9, "sym", "plus"):
        "7004ddd069cc6d4debba9705c30dbb8a732187e437fe44967d3a66ff1dc353c1",
    (10, "sym", "plus"):
        "8cee6c782da5639bd81efc7b2fafff3dbfdd72edef7c5b6d94d3666294009f20",
    (11, "sym", "plus"):
        "d472dde982e00d8c1e3a7c4bcf2e02b0c6312dce73e65ef05ba45678fe57512b",
    (12, "sym", "plus"):
        "33c37f9c63c0d56fd6024258d021ad643bca0186e1b85bcb5650b96b3057e032",
    (13, "sym", "plus"):
        "7300e875e052b2e2e8c6d218506d800d93a7a52d735205eae1218fd509b79ab8",
    (14, "sym", "plus"):
        "efafe369b96ccc9cbf77a065b3916a0f9d53bf6bcd8b7f884fbc0fbc0c59c3cf",
    (15, "sym", "plus"):
        "bfb68a19c54da0d75068b2c30e5d06a383448ac4dd5da715cf33dae178eb5e5f",
    (16, "sym", "plus"):
        "948e318bb8656623d37b31cb8fccd7b51d871ef3f6a0c364e11d244f9336743c",
    (4, "sym", "minus"):
        "2a8a2ed57c5b74525d797ddbd5666211389f78ab091ed02aa4e99facf5b9023a",
    (5, "sym", "minus"):
        "f4d1132c4dadfb185c700d18dabbf1b5d898872e3fd82632eb5c99b1a81edec9",
    (6, "sym", "minus"):
        "3178f763c81925beb944f40448e99a0d759809f077790ba332b4b167f1d7492f",
    (7, "sym", "minus"):
        "36eeb4cd532e4ac7c22cc34160920a70662ffb01383a7eba961191b588fa334b",
    (8, "sym", "minus"):
        "6cc5a78145bfd6116077a78559750f39afbfb7a0bd7f9b518e8180727362be56",
    (9, "sym", "minus"):
        "a6783f9b815f019e4cb81e0d520f4ec6f51ecc01058d17467576d697b7632453",
    (10, "sym", "minus"):
        "5acb52d3d6aeff538771b3bd3998a1a4b0e1fa0609668176b4296acb7e124429",
    (11, "sym", "minus"):
        "054daa06b414c38e4a605e247df2b4383034683ab721a0b417daaacec240e698",
    (12, "sym", "minus"):
        "a3550398fded4d531c458b436e00bccd6efc40807db2cd70892ebd621e40ba23",
    (13, "sym", "minus"):
        "d4e57a0e540bfc90b11f9b36333296f0a66651b4d7ea33a3db5b2671e4bb148b",
    (14, "sym", "minus"):
        "7a9fc47fb3b6a4983e6710457ba0a6ca20d19a8de48c1748b5fd25733fb63e97",
    (15, "sym", "minus"):
        "c395dcdc08682b525472f545d6622aba94ba5305f7d6a4aee1ef7a6abd8a95c0",
    (16, "sym", "minus"):
        "5aa15a12d63b4eeec0cdb4b5760a9190b5b7538423f65d9260243c9da7ad8d23",
    (4, "alt", "plus"):
        "1f8075bd3d4e9d21320710dae9621e629eb7fd11526c9ea45a48bacf66a5051f",
    (5, "alt", "plus"):
        "de98d1bdbf559ffccde7185691ab1569b3b6c3146f0a6219a16d8044eedd5f5a",
    (6, "alt", "plus"):
        "fae060cadc3aef23dbf669a0b6ffb0b96de806136f4c98fc5728b6cb7e6b8284",
    (7, "alt", "plus"):
        "53eddb2be92ba13bd864913f856271864590672d202870599ccc9e0fecd76ed9",
    (8, "alt", "plus"):
        "bd95903b5d61e2300e40daa6b7a3148e1a2d6a2ca3f1463c2b135709417064cf",
    (9, "alt", "plus"):
        "78700231a003d8ffb95d91bbe1dfec5eff2bb22471c7ec83302de5b916cb90a4",
    (10, "alt", "plus"):
        "d92144dd096a4f49568ab43cbf44812c848240eb0f6d8e307c6fa4bbeb2afe4a",
    (11, "alt", "plus"):
        "07edf1f8d85047fdf20111137b24c812b18aa7df2fd767e8f89da5eebeb02662",
    (12, "alt", "plus"):
        "6c28d01042c8394585010aca4a83e415a67042886b97a94cd8e195dc1a8ded98",
    (13, "alt", "plus"):
        "eb0a7a0eae15522a0988f6ffafcd1241adf6a5ef3f48f585eb58a18aa52079e3",
    (14, "alt", "plus"):
        "50c8425c52fa3fca0fc846df3a6f7dc79782042575919ca6ec2da26093fd8719",
    (15, "alt", "plus"):
        "27c050e29c047a0c57dc821cce1eb2e35d1015636eaa76d6f7c7fde140889648",
    (16, "alt", "plus"):
        "63f8a13db9914cd91101fc884c5ef3e53855e7c688d8fa1e25e3120c3786e146",
    (4, "alt", "minus"):
        "1f8075bd3d4e9d21320710dae9621e629eb7fd11526c9ea45a48bacf66a5051f",
    (5, "alt", "minus"):
        "de98d1bdbf559ffccde7185691ab1569b3b6c3146f0a6219a16d8044eedd5f5a",
    (6, "alt", "minus"):
        "fae060cadc3aef23dbf669a0b6ffb0b96de806136f4c98fc5728b6cb7e6b8284",
    (7, "alt", "minus"):
        "53eddb2be92ba13bd864913f856271864590672d202870599ccc9e0fecd76ed9",
    (8, "alt", "minus"):
        "bd95903b5d61e2300e40daa6b7a3148e1a2d6a2ca3f1463c2b135709417064cf",
    (9, "alt", "minus"):
        "78700231a003d8ffb95d91bbe1dfec5eff2bb22471c7ec83302de5b916cb90a4",
    (10, "alt", "minus"):
        "d92144dd096a4f49568ab43cbf44812c848240eb0f6d8e307c6fa4bbeb2afe4a",
    (11, "alt", "minus"):
        "07edf1f8d85047fdf20111137b24c812b18aa7df2fd767e8f89da5eebeb02662",
    (12, "alt", "minus"):
        "6c28d01042c8394585010aca4a83e415a67042886b97a94cd8e195dc1a8ded98",
    (13, "alt", "minus"):
        "eb0a7a0eae15522a0988f6ffafcd1241adf6a5ef3f48f585eb58a18aa52079e3",
    (14, "alt", "minus"):
        "50c8425c52fa3fca0fc846df3a6f7dc79782042575919ca6ec2da26093fd8719",
    (15, "alt", "minus"):
        "27c050e29c047a0c57dc821cce1eb2e35d1015636eaa76d6f7c7fde140889648",
    (16, "alt", "minus"):
        "63f8a13db9914cd91101fc884c5ef3e53855e7c688d8fa1e25e3120c3786e146",
}

# stdout of `table1 --verify-max`, recorded the same way
TABLE1_VERIFY_SHA256 = {
    (11, "plus", "json"):
        "c228a96541b9d15638fb34bd4875f0a0f5e558a417190287e0a3866ce4d689af",
    (16, "plus", "json"):
        "b19fa10d1fe629b83ce2701c1837e9cca3893b10bada3d794d0809f10caa07bb",
    (11, "plus", "tsv"):
        "d9563dd1693e999860b1b644140bec30b67396b91a4af4bd1c207534d6fa6452",
    (16, "plus", "tsv"):
        "d9563dd1693e999860b1b644140bec30b67396b91a4af4bd1c207534d6fa6452",
    (11, "minus", "json"):
        "c228a96541b9d15638fb34bd4875f0a0f5e558a417190287e0a3866ce4d689af",
    (16, "minus", "json"):
        "b19fa10d1fe629b83ce2701c1837e9cca3893b10bada3d794d0809f10caa07bb",
    (11, "minus", "tsv"):
        "d9563dd1693e999860b1b644140bec30b67396b91a4af4bd1c207534d6fa6452",
    (16, "minus", "tsv"):
        "d9563dd1693e999860b1b644140bec30b67396b91a4af4bd1c207534d6fa6452",
}


@pytest.mark.parametrize("n, which, variant", sorted(ED2_COMPUTED_SHA256))
def test_ed2_computed_json_is_unchanged(capsys, n, which, variant):
    code, out, err = run(capsys, "ed2", "-n", str(n), "--which", which,
                         "--variant", variant, "--computed")
    assert (code, err) == (0, "")
    assert (hashlib.sha256(out.encode()).hexdigest()
            == ED2_COMPUTED_SHA256[n, which, variant])


@pytest.mark.parametrize("verify_max, variant, fmt",
                         sorted(TABLE1_VERIFY_SHA256))
def test_table1_verified_output_is_unchanged(capsys, verify_max, variant,
                                             fmt):
    code, out, err = run(capsys, "--format", fmt, "table1", "--verify-max",
                         str(verify_max), "--variant", variant)
    assert (code, err) == (0, "")
    assert (hashlib.sha256(out.encode()).hexdigest()
            == TABLE1_VERIFY_SHA256[verify_max, variant, fmt])


def test_qform_subcommand(capsys):
    code, out, _ = run(capsys, "qform", "1,-1,2/3")
    data = json.loads(out)
    assert data["dim"] == 3
    assert data["witt_index"] == 1
    assert data["hasse_ramified"] == [2, 3]


def test_trace_form_invariants(capsys):
    code, out, _ = run(capsys, "trace-form", "x^2 - 1")
    assert code == 0
    data = json.loads(out)
    assert data["disc"] == 1
    assert data["signature"] == [2, 0]
    assert data["hasse_ramified"] == []


def test_trace_form_computes_the_hasse_invariant_once(capsys, monkeypatch):
    # the dimensions of the forms whose Hasse class is computed: once per
    # form, however many invariants read it
    real = qforms.hasse_invariant
    dims = []

    def counting(q):
        dims.append(q.dim)
        return real(q)

    monkeypatch.setattr(qforms, "hasse_invariant", counting)
    # a totally real quintic: the trace form is positive definite of
    # dimension 5, so witt_index and contains_ones are decided by the
    # signature and only the printed Hasse set and index need the class
    code, out, _ = run(capsys, "trace-form", "x^5 - 5*x^3 + 5*x - 1")
    assert code == 0
    data = json.loads(out)
    assert data["hasse_ramified"] == [2, 3]
    assert data["hasse_index"] == 2
    assert dims == [5]
    # printed, then read by witt_index; contains_ones reads the class of
    # its 5-dimensional probe form
    dims.clear()
    assert run(capsys, "trace-form", "x^3 - 2")[0] == 0
    assert dims == [3, 5]
    dims.clear()
    assert run(capsys, "qform", "1,-1,2/3")[0] == 0
    assert dims == [3]


def test_trace_form_not_squarefree(capsys):
    code, _, err = run(capsys, "trace-form", "x^2 - 2x + 1")
    assert code == 2
    assert "squarefree" in err


def test_trace_check(capsys):
    code, out, _ = run(capsys, "trace-check", "-n", "12", "--trials", "10")
    assert code == 0
    data = json.loads(out)
    assert data["s"] == 2
    assert data["contains_s_ones"] == 10
    assert data["disc_matches"] == 10


def test_trace_check_deterministic_output(capsys):
    _, out1, _ = run(capsys, "--seed", "9", "trace-check", "-n", "6",
                     "--trials", "5")
    _, out2, _ = run(capsys, "trace-check", "-n", "6", "--trials", "5",
                     "--seed", "9")
    assert out1 == out2


# stdout of `trace-check -n 12 --trials 100`, recorded while the
# certificates, resultants and Gram elimination ran on Fractions
TRACE_CHECK_SHA256 = {
    0: "42652904ecaafe6c5bf870d127b55c1e72d42a11010d98794c8e86fa6ef5ef72",
    4242: "42652904ecaafe6c5bf870d127b55c1e72d42a11010d98794c8e86fa6ef5ef72",
}


@pytest.mark.parametrize("seed", sorted(TRACE_CHECK_SHA256))
def test_trace_check_stdout_is_pinned(capsys, seed):
    code, out, _ = run(capsys, "--seed", str(seed), "trace-check", "-n", "12",
                       "--trials", "100")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == TRACE_CHECK_SHA256[seed])


def _python(args, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


# run in a fresh interpreter: every command but the last needs no group,
# so numpy must not have been executed (no numpy.* submodule loaded) until
# the last one, which does
FRESH_CLI_RUN = """
import contextlib, io, json, sys
import schur_ed, schur_ed.cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = schur_ed.cli.main(argv)
    return [code, out.getvalue()]

*numpy_free, group = json.loads(sys.argv[1])
runs = [run(argv) for argv in numpy_free]
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
runs.append(run(group))
print(json.dumps({"numpy_submodules": loaded, "runs": runs}))
"""


def test_quadratic_form_commands_never_execute_numpy(capsys):
    argvs = [["qform", "1,-1,2/3"], ["trace-form", "x^3 - 2"],
             ["trace-check", "-n", "6", "--trials", "5"], ["table1"],
             ["ed2", "-n", "10"], ["chartab", "-n", "4"]]
    done = _python(["-c", FRESH_CLI_RUN, json.dumps(argvs)], timeout=120)
    assert done.returncode == 0, done.stderr
    fresh = json.loads(done.stdout)
    assert fresh["numpy_submodules"] == []
    # the same bytes as in this process, where numpy is loaded
    assert fresh["runs"] == [list(run(capsys, *argv)[:2]) for argv in argvs]


def test_trace_check_finishes_on_the_advertised_degrees():
    # degrees 13..24 once hung in Brent rho; every run must now pass, and
    # all of them together within 60 s (the subprocess is killed at 60 s)
    runs = [(n, 3, seed) for n in range(13, 25) for seed in (0, 1, 2)]
    runs += [(24, 5, 0), (24, 5, 2)]
    script = (
        "import contextlib, io\n"
        "from schur_ed import cli\n"
        f"for n, trials, seed in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(['--seed', str(seed), 'trace-check',\n"
        "                         '-n', str(n), '--trials', str(trials)])\n"
        "    print(n, trials, seed, code)\n")
    done = _python(["-c", script], timeout=60)
    assert done.returncode == 0, done.stderr
    codes = [line.split() for line in done.stdout.splitlines()]
    assert len(codes) == len(runs)
    assert all(code == "0" for *_, code in codes), codes


# stdout of `trace-form` on the defining polynomials of seeded draws
# random_etale_algebra(n, Random(1000 * n + s)) and on rational monic
# polynomials, recorded while every local invariant factored the diagonal
TRACE_FORM_SHA256 = {
    (4, 0): "c1f2922995abcaa8fbbb062f2e742fbc7d0377f670dc6e3a348bf0e888785c32",
    (7, 3): "bc6312359202369b82df206e889009c5e927b1795b437dc2ffb2f8605382149e",
    (8, 2): "786de4990d77f0aeed053ed33db16976acf5b057d2ba6732bbcebdfaabd0e473",
    (9, 5): "609feaed196d9e9d9aa185803601b0a0c0d87371054f76dca9d1f815bd09827c",
    (11, 5): "0daa26728eabd49729836cdeb6a5b396aa7b465a809c6912832fd4f810db37f6",
    (12, 5): "60be2f10d06cae9b7a0619e0ff4802d75cf0cf1bdcf92759047758218ed7a054",
    "x^9 + 4/3*x^8 + x^7 - x^6 + 2/3*x^5 - 4*x^4 - 1/6*x^3 + 2/5*x^2"
    " + 5/12*x + 8/9":
        "77fc7b1bf94e88377c6342959956f1b2a4484ffe2745e558796cdcb94e57c6e9",
    "x^9 - 4/3*x^8 + 6/5*x^7 + 9/5*x^5 + 8/5*x^4 - 3/2*x^3 + 2/5*x^2"
    " - 2/3*x + 5/2":
        "9d24985d3aef8bd2f77b46799f50389d3421b9bae510db24e66c46661be3855c",
    "x^9 - 5/6*x^8 - 5/3*x^7 + 1/3*x^6 + 6*x^5 - 4*x^4 - 7/9*x^3"
    " + 8*x^2 - 1/3*x - 7/2":
        "6cd3b8e76b1b1ed14f16a624c37dd45cd59f3483b8bc910da3e1c0b2095f2365",
}


def _seeded_poly(n, seed):
    E = qforms.random_etale_algebra(n, random.Random(seed))
    return polyq.format_poly(E.defining_polynomial())


@pytest.mark.parametrize("case", list(TRACE_FORM_SHA256), ids=str)
def test_trace_form_stdout_is_pinned(capsys, case):
    poly = case if isinstance(case, str) else _seeded_poly(
        case[0], 1000 * case[0] + case[1])
    code, out, _ = run(capsys, "trace-form", poly)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_FORM_SHA256[case]


# stdout recorded while the printed etale discriminant factored disc(f)
# a second time, outside the memo
TRACE_FORM_16_SHA256 = (
    "fab015419605a6ff36fc96577039c906ebc1d2a16ee06aeff8c8febca384e107")


def test_trace_form_factors_each_integer_once(capsys, monkeypatch):
    # the draw random_etale_algebra(16, Random(16)) of the range test: its
    # 471-bit discriminant is factored for the places and read again for
    # the printed etale_disc
    real = numth.factorize
    calls = []

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(numth, "factorize", counting)
    monkeypatch.setattr(qforms, "factorize", counting)
    monkeypatch.setattr(qforms, "_factor_cache", {})
    code, out, _ = run(capsys, "trace-form", _seeded_poly(16, 16))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_FORM_16_SHA256
    assert max(n.bit_length() for n in calls) == 471
    assert len(calls) == len(set(calls))


def test_trace_form_gives_up_on_a_hard_factorization():
    # the draw random_etale_algebra(22, Random(22)): its discriminant leaves
    # a 187-bit composite cofactor that Brent rho does not split, so the
    # effort cap ends the run with exit 3
    done = _python(["-m", "schur_ed", "trace-form", _seeded_poly(22, 22)],
                   timeout=60)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("resource bound exceeded: factoring a ")
    # random_etale_algebra(24, Random(2)): an entry of its trace form leaves
    # a 122-bit cofactor, but its discriminant factors, and only that is
    # factored
    poly = ("x^24 - x^23 + 2*x^22 - x^21 - 2*x^20 - x^18 + x^16 + 2*x^15"
            " - 2*x^14 + x^13 - 2*x^12 - 2*x^11 + 2*x^10 - 2*x^9 + 2*x^7"
            " + x^6 + x^5 + 2*x^4 - x^3 + 2*x^2 + 1")
    done = _python(["-m", "schur_ed", "trace-form", poly], timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["dim"] == 24


@pytest.mark.slow
def test_trace_form_ends_cleanly_on_degrees_13_to_24():
    # seeded squarefree inputs of every degree above criterion 10's range.
    # Only the discriminant is factored; at degrees 22 and 23 it leaves a
    # cofactor that reaches the factorize cap (a few seconds), so each run
    # gets its own 30 s budget
    for n in range(13, 25):
        done = _python(["-m", "schur_ed", "trace-form", _seeded_poly(n, n)],
                       timeout=30)
        if n in (22, 23) and done.returncode == 3:
            assert done.stderr.startswith("resource bound exceeded: "), n
            continue
        assert done.returncode == 0, (n, done.stderr)
        assert json.loads(done.stdout)["dim"] == n


# stdout recorded while every group was closed by a dict BFS
DEMO_STDOUT_SHA256 = {
    "01_double_covers.py":
        "0bbe31470ef8beb4de6f19133331922a28e60e52f9b7c738b8258cfc556d050c",
    "02_quaternion_sylows.py":
        "ef9f34df89291a9e4a1d45755912f61bac32c34f2fe0f0585b71144c05074f39",
    "03_character_degrees.py":
        "23630eb21656353b974418fe97548157e4c038bf769faf0c075124ed0c385331",
    "04_ed_table.py":
        "ee4e35c4194565a25514acba1e602d420e106ad4f293cd020b6e9aa6d9171cdb",
    "05_spin_matrices.py":
        "96abf22c442cb0687693860257679c8d3cc8179c623a0e7147a93becfe76418c",
    "06_trace_forms.py":
        "d53b267838c0b9c6f8ed65a97556b635dfffbd099539f6a6928c602d805e851c",
}


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_smoke(demo):
    done = _python([str(ROOT / "demos" / demo)], timeout=120)
    assert done.returncode == 0, done.stderr
    assert "FAILED" not in done.stdout and "False" not in done.stdout
    if demo == "06_trace_forms.py":
        assert "25/25" in done.stdout
    assert (hashlib.sha256(done.stdout.encode()).hexdigest()
            == DEMO_STDOUT_SHA256[demo])


def test_bench_tracer_targets_resolve(monkeypatch):
    # bench/run.py wraps these program names from outside; a rename that
    # would crash the benchmark fails here instead
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracer
    assert tracer.TARGETS
    tracer.assert_clean()


def test_bench_names_resolve_for_every_pass(monkeypatch):
    # every bench pass, traced or not, checks the wrapped names and resets
    # the program's module-level state before each job
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import jobs
    import tracer
    tracer.assert_clean()
    recorder = tracer.Recorder()
    try:
        recorder.install()
    finally:
        recorder.uninstall()
    tracer.assert_clean()
    jobs.ColdStart()()


def test_size_bound_exit_code(capsys, monkeypatch):
    monkeypatch.setenv(cli.SIZE_BOUND_ENV, "10")
    code, _, err = run(capsys, "chartab", "-n", "8")
    assert code == 3
    assert "bound" in err
    monkeypatch.setenv(cli.SIZE_BOUND_ENV, "1000")
    assert run(capsys, "chartab", "-n", "12", "--subgroup", "sylow2") == (
        3, "", "resource bound exceeded: closure exceeded 1000 elements\n")


def test_size_bound_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.SIZE_BOUND_ENV, "10")
    code, _, _ = run(capsys, "chartab", "-n", "4", "--size-bound", "1000")
    assert code == 0
