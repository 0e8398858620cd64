"""`npcode verify` keeps every byte: for a grid of codes and erasure counts,
the sha256 of its exit code, its stdout and its stderr, generated at commit
5847a4c, before the verify walk decided whole subtrees of leaf parents at
once (each case run in process, one code file per code)."""

import hashlib

import pytest

from npcode.cli import main

CODES = {
    "parity-n6": ["--family", "parity", "--n", "6"],
    "parity-n9": ["--family", "parity", "--n", "9"],
    "hamming-mu3": ["--family", "hamming", "--mu", "3"],
    "hamming-mu4": ["--family", "hamming", "--mu", "4"],
    "hamming-mu5": ["--family", "hamming", "--mu", "5"],
    "bch-7-4": ["--family", "bch", "--n", "7", "--design-t", "1"],
    "bch-7-1": ["--family", "bch", "--n", "7", "--design-t", "2"],
    "bch-15-7": ["--family", "bch", "--n", "15", "--design-t", "2"],
    "bch-31-21": ["--family", "bch", "--n", "31", "--design-t", "2"],
    "bch-63-51": ["--family", "bch", "--n", "63", "--design-t", "2"],
}
TS = [0, 1, 2, 3, 4, 5, 6, 9, 20, 60, 70]
# Hamming mu = 5 at t = 6 alone takes longer than the rest of the grid
CASES = [(name, t) for name in CODES for t in TS if (name, t) != ("hamming-mu5", 6)]

GOLDEN = {
    "parity-n6-t0": "9f30e378977a5fbe0ff3d2384f6c26426f1a7a09e68ccaa8e46a846b384c640a",
    "parity-n6-t1": "6f9e78dca1b8ebf81b348a1fe8f634b252a68ff317e819e5c87ad1725c1bb2db",
    "parity-n6-t2": "b7109fe4b78a6fae6150be6e81fd72363cf2be5d59c5c13630cc07099bdc8076",
    "parity-n6-t3": "8b985aa9f108f8aedfc0f068c1e8fb6a87d3fcd1501998f16ac6566553be0d81",
    "parity-n6-t4": "a5a0d31ac80612d697f62fc5f73caeb62e9d9c5bf600c6e0bb9ca045501ed45e",
    "parity-n6-t5": "fe392e83a4f64d4cc01890f54f6f6ac8965d3472df3832fd2c9d87e9648413ed",
    "parity-n6-t6": "66a3c349eaa9df475836fe8f53c36614b0c5e1c17cd9eca82b5cd9d272f5a6f4",
    "parity-n6-t9": "81a80b7d5d6fc11a8b7156e2639e0b013ca7d58fa6c32a591bbaf3ac12ffb46f",
    "parity-n6-t20": "042b3d4fda6dbda2aa8162e6c93a4aa24bef46e539f35614b8dbed01d5e94b8e",
    "parity-n6-t60": "1625cba850575c77e75224e29bd395ce387f4f11a6234d50435fca53c7ccc0d6",
    "parity-n6-t70": "e343cfe3888b6d1feacade04b6243cc2644408b28ed7a92220968162c16e8c81",
    "parity-n9-t0": "9f30e378977a5fbe0ff3d2384f6c26426f1a7a09e68ccaa8e46a846b384c640a",
    "parity-n9-t1": "297b4d6548b635e4f47a77dd111be2f5aff9446f409218658d4e3546336ea794",
    "parity-n9-t2": "358ce0da0162162a8c2d63fa9e3454b613e078c07928fa38c37e001cf94a8f71",
    "parity-n9-t3": "707880243b10ec1f759252db9cb2e6f5cfc5bbf10f3b04cfd6aaa53950d13dc8",
    "parity-n9-t4": "cfe7bf54bd5ccde9e6359dbe12495568fe3947f110138b2ca0b8df86b6c7f431",
    "parity-n9-t5": "7440892fd31c50f72d9d96621cf9f7f36ae49d9517aa5aba81d6b32ec43e73f9",
    "parity-n9-t6": "0aaf3f817b0e64b2581a2a1d0d79bf0359e86845ec7cde4cc3139a617096dfa6",
    "parity-n9-t9": "ef4e21d68e5d5e996220fc2849a2a5533ebf6a44f505e3055c8d348b4d4423e4",
    "parity-n9-t20": "76b6a731c68c162ee3a58308d13c69a25452517399a0f8981b4be92a3e423e4f",
    "parity-n9-t60": "19e4832c7c20c860a704c418a678f89978f81bb5ff32f232463fe7ffb546b850",
    "parity-n9-t70": "9589cb3bc03bc2c9acf4ed29edf6045517127981ae251336ab25e47932336529",
    "hamming-mu3-t0": "9f30e378977a5fbe0ff3d2384f6c26426f1a7a09e68ccaa8e46a846b384c640a",
    "hamming-mu3-t1": "270efb5a022a287d5b49f458163fa371f07d11d11b66c23b8e736e713598aee6",
    "hamming-mu3-t2": "31a02a87993c098e5e80209ed03c397da7d07bf10ef0cd4e100971556e1938d0",
    "hamming-mu3-t3": "d87f5bd06d9828e70bf5ed9f402ffca6ee213647b274f8f8a1dc081865568837",
    "hamming-mu3-t4": "d4dcb4290adf3cd5ab07447485ec4ccf15537067bd0687c3f091fba4898601ff",
    "hamming-mu3-t5": "61d92ae40d0ce4c82872b87bbd280a8c5a46b43ed12fd5ac02f24c1b6e74cc6b",
    "hamming-mu3-t6": "21fc06d00903b8574f542e4f9c56fc337e9fe1a6ab53d0b918b0607e07996322",
    "hamming-mu3-t9": "45dee4f463afd94e56dc144ec3c2c7f14705cebdd7d0c61809043dbf13736703",
    "hamming-mu3-t20": "2623e3557d77e9237ab232b01936518696280401871066ac5b357b1ee789fa86",
    "hamming-mu3-t60": "e25e0cb81fe060aba078eabec649144c389a51f3f823f26688e5da4fbdecf6f8",
    "hamming-mu3-t70": "c1472079cc0ce952514cd486737a4799072e433cb90c20b6af75b3c7a4a98631",
    "hamming-mu4-t0": "9f30e378977a5fbe0ff3d2384f6c26426f1a7a09e68ccaa8e46a846b384c640a",
    "hamming-mu4-t1": "b509ca86f9cc8e4e2734c441aeaee303416914e725e0dd5726dd0ceae91de5fd",
    "hamming-mu4-t2": "e051ff8afaba3400d1ef245bed9af3be8efdbec363a2dfa502456fe258e992c8",
    "hamming-mu4-t3": "9ed8f2e9381d86f01124c6d34978279e30b7c17cacca7472c8fedf62b6ae8910",
    "hamming-mu4-t4": "203c601f83edadfcb85af38b3c2031d8ca26bb5a93b97e55e2c6e26f920cea7c",
    "hamming-mu4-t5": "46df7f0d131ef03ae311618e5378f2317b56a556d88ab1aff67e0ec4b9282652",
    "hamming-mu4-t6": "73e99847c03387cddf2355126d52bb0477712db6a82beea86cf2fc19367a3203",
    "hamming-mu4-t9": "dad18f4c5b869ef29d13e084c4d98764c30efbc7487c6c3ee9b8e75ce1650767",
    "hamming-mu4-t20": "13e194abe5cfbd994581bec66a6607e3361d9fb807fa0e595fc874e4932e86c2",
    "hamming-mu4-t60": "a499b0192e4da8b93b3887d9838b9e51d38ff40bbe2b1d6f2ede306f2d7f219f",
    "hamming-mu4-t70": "c73ba6e4cf07e973f825daeff5a1e5de376e7b1fbca7f285ae900ce6512800a5",
    "hamming-mu5-t0": "9f30e378977a5fbe0ff3d2384f6c26426f1a7a09e68ccaa8e46a846b384c640a",
    "hamming-mu5-t1": "a554b224393058cd6a622f4255188a9a23418670b5fcd25550e6a9026d3363a8",
    "hamming-mu5-t2": "43fc1e5bc29f2b7227c10d14414c4cc4920791b8f912c5780832c36a78a384ce",
    "hamming-mu5-t3": "761cfdc8d9a4e326ee948d535310a2135e193b7391bbbec0d4d1d91959fedb59",
    "hamming-mu5-t4": "7a0f56ccd200b1959a8a0c713bde02a4a050c5e5cfff58c9f417d592c57453e7",
    "hamming-mu5-t5": "8676ade4f338b8a3149f89d392f250ee30f3f7fb3a6e6a21d33690350780dc9a",
    "hamming-mu5-t9": "170b145baa8cfd97bb2e3ac779819ffe5c40d7222edb2de1cae9d53f87824283",
    "hamming-mu5-t20": "208b6746371331a952bdd8de8459773a50ab1e22f64fa60dde5b52e57ca98a42",
    "hamming-mu5-t60": "776faeb796a1019a61aecd8e4b9f5cae8b358170d5bed23fd4aead9013062510",
    "hamming-mu5-t70": "1835f3f0c6394368f7566255ee8475ab93f29db27740e57ffc9843cdb1d3e14e",
    "bch-7-4-t0": "9f30e378977a5fbe0ff3d2384f6c26426f1a7a09e68ccaa8e46a846b384c640a",
    "bch-7-4-t1": "270efb5a022a287d5b49f458163fa371f07d11d11b66c23b8e736e713598aee6",
    "bch-7-4-t2": "31a02a87993c098e5e80209ed03c397da7d07bf10ef0cd4e100971556e1938d0",
    "bch-7-4-t3": "a6d0e3cf58e6048ee5dd22a639a1ad4ba04696a414c18157020102a037584ddb",
    "bch-7-4-t4": "d4dcb4290adf3cd5ab07447485ec4ccf15537067bd0687c3f091fba4898601ff",
    "bch-7-4-t5": "61d92ae40d0ce4c82872b87bbd280a8c5a46b43ed12fd5ac02f24c1b6e74cc6b",
    "bch-7-4-t6": "21fc06d00903b8574f542e4f9c56fc337e9fe1a6ab53d0b918b0607e07996322",
    "bch-7-4-t9": "45dee4f463afd94e56dc144ec3c2c7f14705cebdd7d0c61809043dbf13736703",
    "bch-7-4-t20": "2623e3557d77e9237ab232b01936518696280401871066ac5b357b1ee789fa86",
    "bch-7-4-t60": "e25e0cb81fe060aba078eabec649144c389a51f3f823f26688e5da4fbdecf6f8",
    "bch-7-4-t70": "c1472079cc0ce952514cd486737a4799072e433cb90c20b6af75b3c7a4a98631",
    "bch-7-1-t0": "9f30e378977a5fbe0ff3d2384f6c26426f1a7a09e68ccaa8e46a846b384c640a",
    "bch-7-1-t1": "270efb5a022a287d5b49f458163fa371f07d11d11b66c23b8e736e713598aee6",
    "bch-7-1-t2": "31a02a87993c098e5e80209ed03c397da7d07bf10ef0cd4e100971556e1938d0",
    "bch-7-1-t3": "4049d32989c88a82865549796134b60c504dd03d5530a5c6d1cc694d61dfc72d",
    "bch-7-1-t4": "c3f98ccc32bf003dd70a8c08fafa38cf504c4487d6c51534cc5f010eabc90896",
    "bch-7-1-t5": "bdfdc2f039608fabc6f2ecd272d68b54e26d209f867e93ffe796ebdb81a92b50",
    "bch-7-1-t6": "74317e6b304dec2d6080a617baaf13bafcff8f7c81504dac8b463de0249ada2e",
    "bch-7-1-t9": "45dee4f463afd94e56dc144ec3c2c7f14705cebdd7d0c61809043dbf13736703",
    "bch-7-1-t20": "2623e3557d77e9237ab232b01936518696280401871066ac5b357b1ee789fa86",
    "bch-7-1-t60": "e25e0cb81fe060aba078eabec649144c389a51f3f823f26688e5da4fbdecf6f8",
    "bch-7-1-t70": "c1472079cc0ce952514cd486737a4799072e433cb90c20b6af75b3c7a4a98631",
    "bch-15-7-t0": "9f30e378977a5fbe0ff3d2384f6c26426f1a7a09e68ccaa8e46a846b384c640a",
    "bch-15-7-t1": "b509ca86f9cc8e4e2734c441aeaee303416914e725e0dd5726dd0ceae91de5fd",
    "bch-15-7-t2": "e051ff8afaba3400d1ef245bed9af3be8efdbec363a2dfa502456fe258e992c8",
    "bch-15-7-t3": "bcd081975e877a2c6cb8bc8858ca4cadc24c160c8e7309659279b967519fb9a4",
    "bch-15-7-t4": "47193d4d496e5e222e9076a5ddd1eb1acc1329ea7293b9813c2d0c293fa779cf",
    "bch-15-7-t5": "0d3dddc6a202a798de5f93c34007587949b6dc8b68b95775e44222047fbe8d3d",
    "bch-15-7-t6": "f7759307d02f600d5eaf8773949b5340a2e486aa671752e0b7660f756b72d9d3",
    "bch-15-7-t9": "dad18f4c5b869ef29d13e084c4d98764c30efbc7487c6c3ee9b8e75ce1650767",
    "bch-15-7-t20": "13e194abe5cfbd994581bec66a6607e3361d9fb807fa0e595fc874e4932e86c2",
    "bch-15-7-t60": "a499b0192e4da8b93b3887d9838b9e51d38ff40bbe2b1d6f2ede306f2d7f219f",
    "bch-15-7-t70": "c73ba6e4cf07e973f825daeff5a1e5de376e7b1fbca7f285ae900ce6512800a5",
    "bch-31-21-t0": "9f30e378977a5fbe0ff3d2384f6c26426f1a7a09e68ccaa8e46a846b384c640a",
    "bch-31-21-t1": "a554b224393058cd6a622f4255188a9a23418670b5fcd25550e6a9026d3363a8",
    "bch-31-21-t2": "43fc1e5bc29f2b7227c10d14414c4cc4920791b8f912c5780832c36a78a384ce",
    "bch-31-21-t3": "c4ac0ad84fd972204f1d0187337562a1183b42d3e97b9055784b02e1ec950089",
    "bch-31-21-t4": "b2f2bff1c30b44de94edc5c144b39f932f20c3f3a496912c2dac5bcc93524526",
    "bch-31-21-t5": "29176ee49a6c7f1a9d7b466399be320ab8171f5d8995d8af12516b459694ead6",
    "bch-31-21-t6": "5c0c1dc6ca6af0b9a8a1936ad63e995818e17f0b282a164fc0de47f1b4f1765d",
    "bch-31-21-t9": "170b145baa8cfd97bb2e3ac779819ffe5c40d7222edb2de1cae9d53f87824283",
    "bch-31-21-t20": "208b6746371331a952bdd8de8459773a50ab1e22f64fa60dde5b52e57ca98a42",
    "bch-31-21-t60": "776faeb796a1019a61aecd8e4b9f5cae8b358170d5bed23fd4aead9013062510",
    "bch-31-21-t70": "1835f3f0c6394368f7566255ee8475ab93f29db27740e57ffc9843cdb1d3e14e",
    "bch-63-51-t0": "9f30e378977a5fbe0ff3d2384f6c26426f1a7a09e68ccaa8e46a846b384c640a",
    "bch-63-51-t1": "92c536ce7c25185056753ecada30fefb13711cf239062192a0ea01f1e77d72a8",
    "bch-63-51-t2": "be882e472755a7109355a912794724260905cf0a4dffea21ac54eacf8348a567",
    "bch-63-51-t3": "86ae2c54ea7505a51d5f463431250773cab0dc827ab0c96c04b8c53f76e9feae",
    "bch-63-51-t4": "4ead724517d28d2a5587695590846eec5eed8f7e8729851de8ec21c801912bda",
    "bch-63-51-t5": "9b4860ca2744370c788ae6f38ee14d744c911fad6bc65ed1d882852d194184e3",
    "bch-63-51-t6": "274e2b28b77b2292d9c87d7f80f6ca6d1a2728ef4fa2dc934e8bc740bc7f30bf",
    "bch-63-51-t9": "ecd5715ba12b76fdba34a8e41f6faa54652739a803bb5df7799e6f0dfb3afcb1",
    "bch-63-51-t20": "07ed5ad569066afd3f74eea08ba1d6fe72f7dc6bf6f3c4e3f6ba3dbcb89daca6",
    "bch-63-51-t60": "37a2879c4daca1baf0578293b0460c6c20866fff2cd73734acae86a1c2c21748",
    "bch-63-51-t70": "952c440d993a07a360b8927d35e8db950bdc4328d7bc9653d200cb2cdf1a0bfb",
}


@pytest.fixture(scope="module")
def code_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("codes")
    paths = {}
    for name, params in CODES.items():
        paths[name] = directory / f"{name}.npc"
        assert main(["codegen", *params, "--out", str(paths[name])]) == 0
    return paths


def verify_digest(path, t, capsys):
    """sha256 of the exit code, stdout and stderr of one verify command."""
    capsys.readouterr()
    rc = main(["verify", str(path), "--t", str(t)])
    captured = capsys.readouterr()
    return hashlib.sha256(f"{rc}\n{captured.out}\0{captured.err}".encode()).hexdigest()


@pytest.mark.parametrize("name, t", CASES, ids=[f"{name}-t{t}" for name, t in CASES])
def test_verify_output_unchanged(code_files, name, t, capsys):
    assert verify_digest(code_files[name], t, capsys) == GOLDEN[f"{name}-t{t}"]
