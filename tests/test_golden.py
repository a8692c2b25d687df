"""Golden bytes: each command's exit code, stdout and stderr, by sha256.

The commands are run in-process, in JSON and in CSV, and each run's digest is
compared with GOLDEN, so a change that moves a byte of any of them fails here,
named by its command.  The instance files for `extremal` and `uncertainty` are
written by this file's own recipe (_instance), from numpy's generators alone.
Left out: d = 64, whose sums depend on the BLAS thread count, and --timing.

A change that moves bytes on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and names the commands whose digests moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from unravel import cli

# (d, Kraus operators, seed) of the instance file inst{d}.json
INSTANCES = [(2, 3, 11), (3, 2, 12), (4, 4, 13)]

COMMANDS = [
    "sweep --dim 1 --trials 5 --seed 5",
    "sweep --dim 2 --trials 40 --seed 5",
    "sweep --dim 3 --trials 20 --seed 5",
    "sweep --dim 8 --trials 6 --seed 5",
    "sweep --dim 16 --trials 3 --seed 5",
    "sweep --dim 3 --trials 4 --seed 100000000000000000000000",
    "sweep --dim 2 --trials 6 --remixings 7 --alpha-grid 0.3,0.5,1,2 --seed 9",
    "sweep --dim 2 --trials 2 --alpha-grid 0.3",  # no order above 1/2: no relation rows
    "sweep --dim 1 --trials 2",
    "ensemble --dim 3 --members 2 --alpha 0.7 --trials 30 --seed 3",  # m < rank(rho): exit 2
    "ensemble --dim 3 --members 3 --alpha 0.7 --trials 30 --seed 3",
    "ensemble --dim 3 --members 4 --alpha 0.7 --trials 30 --seed 3",
    "ensemble --dim 5 --members 7 --alpha 0.7 --trials 30 --seed 3",
    "ensemble --dim 4 --members 1 --alpha 0.7 --trials 30 --seed 3",
    "ensemble --dim 1 --members 1 --alpha 0.7 --trials 30 --seed 3",
    "ensemble --dim 2 --members 5 --alpha 0.7 --trials 30 --seed 3",
    "ensemble --dim 3 --members 4 --alpha 2 --trials 150 --seed 5",
    "ensemble --dim 2 --members 3 --alpha 2 --trials 5 --seed 100000000000000000000000",
    "demo dft --dim 8 --alpha 2 --trials 500 --seed 4",
    "demo dft --dim 3 --alpha 0.7 --trials 20 --seed 100000000000000000000000",
    "demo angle --alpha 2",
] + [
    command
    for d, _, _ in INSTANCES
    for command in [f"extremal --in inst{d}.json --remixings 50"]
    + [
        f"uncertainty --in inst{d}.json --alpha 2 --factor {factor} --kind {kind}"
        for factor in ("g", "f", "fbar")
        for kind in ("tsallis", "renyi")
    ]
]
RUNS = [prefix + command for prefix in ("", "--format csv ") for command in COMMANDS]

# the sha256 of each run's json.dumps([exit code, stdout, stderr]) (_digest)
GOLDEN = {
    'sweep --dim 1 --trials 5 --seed 5': 'd03de2d27c2436e456b335f45ec6c2581ef18d2964921fa94b86879531c16476',
    'sweep --dim 2 --trials 40 --seed 5': '75acffdf3c53b3b818392752177ca679f921942ada504c7133a856a154cc526a',
    'sweep --dim 3 --trials 20 --seed 5': 'ebf8ce9a5479065decf8ea89efb2f2d6ba408c067a88019d3222589343a43af5',
    'sweep --dim 8 --trials 6 --seed 5': 'f6a9f18f97100ade15331fb1d97bc2dc8c38599571c19416e25900db0f0924cd',
    'sweep --dim 16 --trials 3 --seed 5': 'e9563e51d85fe451fa054c5d9891bb10910d3fe981c72d4d9773759038c8bccc',
    'sweep --dim 3 --trials 4 --seed 100000000000000000000000': 'd67dd09c020ae8e03cba2a6c26cd802433648ee42727eb1dd3db6d55d0f9fd59',
    'sweep --dim 2 --trials 6 --remixings 7 --alpha-grid 0.3,0.5,1,2 --seed 9': '32e9abcec0ec84eb2f07f7f3ac87fe99e4f89f235fb414c1cfebb143a6e5d558',
    'sweep --dim 2 --trials 2 --alpha-grid 0.3': '7dcef9504dda9cd1dd640dc179d982f92c7920d6afd9a8554c3a890dc37a716c',
    'sweep --dim 1 --trials 2': '56ed432059fe9951143bf6fcfeae15a535fba882fae3f2f6ed66a4d9abb9578d',
    'ensemble --dim 3 --members 2 --alpha 0.7 --trials 30 --seed 3': 'd3cd40582f3d6a99162e350f8dfff179570a5161b5ca355681c5d72f7e8596c8',
    'ensemble --dim 3 --members 3 --alpha 0.7 --trials 30 --seed 3': 'ed37d236c09c5eca3f781fa23e37256167fa02158447682336c6d72a654129fc',
    'ensemble --dim 3 --members 4 --alpha 0.7 --trials 30 --seed 3': '4202d17413cfaf59aa425c990814218fd59969a3a33c8710d763f325e30d19b4',
    'ensemble --dim 5 --members 7 --alpha 0.7 --trials 30 --seed 3': '09f848f1a3fb013002330bfd66b80657df8f1d8097d3bb79ca498d1d952d900d',
    'ensemble --dim 4 --members 1 --alpha 0.7 --trials 30 --seed 3': '3e9bb7dc3ed53c4eb892857b847887ac28a04fbcb2151fd4c5205966d6314826',
    'ensemble --dim 1 --members 1 --alpha 0.7 --trials 30 --seed 3': '4e632c1d4e619de7ff035b03595339c7ca089eb5a6653dbff45e7f0f3e1ecae1',
    'ensemble --dim 2 --members 5 --alpha 0.7 --trials 30 --seed 3': 'f957f931f1624017c7ff71890916f23662fe9adb024c540c101619334ad2fc64',
    'ensemble --dim 3 --members 4 --alpha 2 --trials 150 --seed 5': '09ccefbe6e453ebfa9972b30ceb4bd21ac3c2eca4488f4a01c504bae81212188',
    'ensemble --dim 2 --members 3 --alpha 2 --trials 5 --seed 100000000000000000000000': 'e3169dc6885447c52fcfe59bb3603b8cc445c8155d73ea8cfed4106cff383bc0',
    'demo dft --dim 8 --alpha 2 --trials 500 --seed 4': '89bd778f83667b997f5b6de9a1fc6a87b8dfbf3c79eed781880c983902b61941',
    'demo dft --dim 3 --alpha 0.7 --trials 20 --seed 100000000000000000000000': '1f44651ad870d1d3d8fb34758eb505737a3070ee7d9afcfe4264a3cb67d48e68',
    'demo angle --alpha 2': '90905bdd95273427c779548eb163eed19d80f50ed991cee7f3cdf1c0f7dadc55',
    'extremal --in inst2.json --remixings 50': 'f8528d9cc380086f5cf6fb1564bcc0c045a667dbf88614b713c6d79c56c5600f',
    'uncertainty --in inst2.json --alpha 2 --factor g --kind tsallis': '81f72196f1a0b61d945c277acc767ae798a7de15a2cc464f88d19d2afaf79ae4',
    'uncertainty --in inst2.json --alpha 2 --factor g --kind renyi': '2bda10c1bbe54e26a04e713df8c1707e775c0fddb6c812686f10d84d116611d8',
    'uncertainty --in inst2.json --alpha 2 --factor f --kind tsallis': '0cce1a88fcbc0d223b921f1794d21e249f91f0708058986d585718dee7968d11',
    'uncertainty --in inst2.json --alpha 2 --factor f --kind renyi': '0bbcdbc2ac2024954ee80cf5c97cde8fc6631813b785b8c6387eb6b5117a7ed3',
    'uncertainty --in inst2.json --alpha 2 --factor fbar --kind tsallis': '0581fe53e70c3123a827e0fe8b00c8dfbe903bc619444dcf99d54c221d55fb9c',
    'uncertainty --in inst2.json --alpha 2 --factor fbar --kind renyi': '2fe4b4c207a8ba10edae1c373bebaf3fa391608a50cc54ac51e4f0787998a981',
    'extremal --in inst3.json --remixings 50': 'd0c60c0be1d4cd01d91abda10f82c3d06754208b432be478be4c539ce273d1fa',
    'uncertainty --in inst3.json --alpha 2 --factor g --kind tsallis': '663c9ce82d263c88ff6039c0bbde37656d244137885e1867dcf70197643b7008',
    'uncertainty --in inst3.json --alpha 2 --factor g --kind renyi': '40702dfbcf7953e8e7915ad56dde033ea8fbe16329bc2b3f332df52fe08665a1',
    'uncertainty --in inst3.json --alpha 2 --factor f --kind tsallis': '840a65c3a8efdd8991663d598bb6f9cb9dbc3d7a46748116faaecc940c931d29',
    'uncertainty --in inst3.json --alpha 2 --factor f --kind renyi': '2f6ec0e6b5d6fb444077b5b1fbbc924c084fc0028de3a96b85b8e705c0124e24',
    'uncertainty --in inst3.json --alpha 2 --factor fbar --kind tsallis': '39e31dbe66015e9a44586a3a25196ff632d181f20189e9740d47681948968442',
    'uncertainty --in inst3.json --alpha 2 --factor fbar --kind renyi': '49540834513b8f2fac46de012c159cf66450a709d82e83ea2b0aa4dd3d86a49e',
    'extremal --in inst4.json --remixings 50': '33b1df7466c3e86970a96dd08e88c8d65f417fc040de3fad099f0cd33aa781ae',
    'uncertainty --in inst4.json --alpha 2 --factor g --kind tsallis': '4400fd99451a38f353d7d4029c524a991969dcfab7b3603fc10cf421457bb700',
    'uncertainty --in inst4.json --alpha 2 --factor g --kind renyi': '887179dbf06d196b106deb6ced93a3ddcd92a1faf12462e16f999b7b4c5eb24c',
    'uncertainty --in inst4.json --alpha 2 --factor f --kind tsallis': 'd67c51903d3879c83d7b97fc82476937c24f1e9d3b36ca7072731332153778f4',
    'uncertainty --in inst4.json --alpha 2 --factor f --kind renyi': '4cda0efd1ce185e8e214ca09010a15b0e1dd1ae383542bdc7bd7f54b293c3597',
    'uncertainty --in inst4.json --alpha 2 --factor fbar --kind tsallis': 'e00e26b04e0e1891782066ec8477a73cec5281f57e74304b011f77a2991c5651',
    'uncertainty --in inst4.json --alpha 2 --factor fbar --kind renyi': '75e72a95a6ed1f8e132e050578acf4414f2a06c459dcf878fccf22cf92269499',
    '--format csv sweep --dim 1 --trials 5 --seed 5': '96ec1e4dce01fa3cc8f418c0a712de579faf26a7c69627a418697f185c9bf196',
    '--format csv sweep --dim 2 --trials 40 --seed 5': 'acc47746e6c846ebc6a83dec20cf02d7566fc28ec35c8392ff19cf8f20d67883',
    '--format csv sweep --dim 3 --trials 20 --seed 5': 'bd4c2092ec040cdcbf31f3d129896771bf10bee5513020ef8c953101cf819eaf',
    '--format csv sweep --dim 8 --trials 6 --seed 5': 'd131e8f47b0ed6982094cb11aa718dd34c1b51fa618b7f82ad662629bc60e2f6',
    '--format csv sweep --dim 16 --trials 3 --seed 5': 'b0b134e6ecfe44bea7d08be2d39cdd7a6789761e459dea059860d16877c88989',
    '--format csv sweep --dim 3 --trials 4 --seed 100000000000000000000000': '1f1a9f55baa9765e2c8940e7599780fb09f054cfa6c51de0d73ce0118ff29011',
    '--format csv sweep --dim 2 --trials 6 --remixings 7 --alpha-grid 0.3,0.5,1,2 --seed 9': 'ff6777d3a6e67872e4bd8abe4b4e51b42bf71d5368dabb5613d350f27ed303ac',
    '--format csv sweep --dim 2 --trials 2 --alpha-grid 0.3': 'b9a3a59e8c7409c462b1a8210a38132eab19794dbdd54ac833bcbb8c68f50755',
    '--format csv sweep --dim 1 --trials 2': '8856c195588501027a7650c14f3a4d1cb4ee81171072dc3538e486e7ec75cce6',
    '--format csv ensemble --dim 3 --members 2 --alpha 0.7 --trials 30 --seed 3': 'd3cd40582f3d6a99162e350f8dfff179570a5161b5ca355681c5d72f7e8596c8',
    '--format csv ensemble --dim 3 --members 3 --alpha 0.7 --trials 30 --seed 3': '3834e504a9fd94e3305c0f3ebcd861cf56a081aa31ebda60adc9ec5083022b06',
    '--format csv ensemble --dim 3 --members 4 --alpha 0.7 --trials 30 --seed 3': '6eadea06d2fc185648cba465c516474bc490406a58c13f43a4110bd0c8b611f7',
    '--format csv ensemble --dim 5 --members 7 --alpha 0.7 --trials 30 --seed 3': '958e7ea4d2a3ba0777e904085f084a97adc73fc5ab5ed434fc3b63bfbe2b275a',
    '--format csv ensemble --dim 4 --members 1 --alpha 0.7 --trials 30 --seed 3': '3e9bb7dc3ed53c4eb892857b847887ac28a04fbcb2151fd4c5205966d6314826',
    '--format csv ensemble --dim 1 --members 1 --alpha 0.7 --trials 30 --seed 3': '940d34bbbd44a6b2d15836f35eb07897ea403264aaf52acb1e2b10c462901804',
    '--format csv ensemble --dim 2 --members 5 --alpha 0.7 --trials 30 --seed 3': '12ccc3320a87770785b657664c1ffd91a2be03dce3ee46f0600d67bb14cec836',
    '--format csv ensemble --dim 3 --members 4 --alpha 2 --trials 150 --seed 5': 'e15d35b9fa4640ac3f4c85525e9db5a57f1c7eb35cd3525f3729950eac353521',
    '--format csv ensemble --dim 2 --members 3 --alpha 2 --trials 5 --seed 100000000000000000000000': '8db3c36a67ed5b2cee9f88148c6ac5335e809760d7213ae137bdb62cd5da439b',
    '--format csv demo dft --dim 8 --alpha 2 --trials 500 --seed 4': 'f07ed55d7fa3f2b0374c2831eb8383a6e2e8c7ae315cd7d4592bf98653f2f441',
    '--format csv demo dft --dim 3 --alpha 0.7 --trials 20 --seed 100000000000000000000000': '2909ad9ec70e705fabfc2535aed1f048c46164c04dde37ec1fb6c82869f301f8',
    '--format csv demo angle --alpha 2': 'ad5260ca02a2b61e8c0147b526b01a47b92feee2d278b01b7115c720cb824039',
    '--format csv extremal --in inst2.json --remixings 50': 'fc97148fc998aa368cca1a9c453ef14ca9f3684253cd4d240850d316c90b206c',
    '--format csv uncertainty --in inst2.json --alpha 2 --factor g --kind tsallis': '63fa3452a25d01598404f2b2112809fb2008c69f7dfc04dff59b671ea71f2875',
    '--format csv uncertainty --in inst2.json --alpha 2 --factor g --kind renyi': '848f45dd9dc30e8b668152afe50ad71c4db1c8b2c7466f815e7961cfc9469ec9',
    '--format csv uncertainty --in inst2.json --alpha 2 --factor f --kind tsallis': '2c3fb5b5512cb6e7e0532e3153567995907f71a3063993fbb2cae760c36d2b04',
    '--format csv uncertainty --in inst2.json --alpha 2 --factor f --kind renyi': '603c75be845b78765fc1adac81f8a56de0c266db189ca0fd73a7ebf377bb7c8b',
    '--format csv uncertainty --in inst2.json --alpha 2 --factor fbar --kind tsallis': 'e6faab6a831c4693b21fe2c5e5a8c4585e32a0b8217793289b420c37d1232193',
    '--format csv uncertainty --in inst2.json --alpha 2 --factor fbar --kind renyi': 'fafb8248525a27fe1e49209646dec69f7c466ca2e00a10a0f1bc56ab13d71913',
    '--format csv extremal --in inst3.json --remixings 50': 'cf24e17b283e613bf7052002aa87f2d7a7ef8c964e5e6952a07d7f9cb82be0af',
    '--format csv uncertainty --in inst3.json --alpha 2 --factor g --kind tsallis': 'bc932f2f6fdc41d2ec957d14af3260e6397bd5cef8dd316f292662ac27b0766d',
    '--format csv uncertainty --in inst3.json --alpha 2 --factor g --kind renyi': '363678e1d121fca748ccf4ce23190984ad182709193d9dd2dcc823a6f830cfbd',
    '--format csv uncertainty --in inst3.json --alpha 2 --factor f --kind tsallis': '1ae3e0040c026836d0ea742638d79eb0a9d408ffc95b64fc1d57015bfa9fb654',
    '--format csv uncertainty --in inst3.json --alpha 2 --factor f --kind renyi': '699ac971097380a9e7a36c597c4924a37ab57ae11942fdf3363410f6e0b29d9f',
    '--format csv uncertainty --in inst3.json --alpha 2 --factor fbar --kind tsallis': '443f8014d7c94437d15952258e9fa22369b029405b0f4f4ea7605cc59fc31d51',
    '--format csv uncertainty --in inst3.json --alpha 2 --factor fbar --kind renyi': '45405e12fafbe361acfb6cabfb2f46d06844a35ab4d7c8fa51688e6661b1131b',
    '--format csv extremal --in inst4.json --remixings 50': '345b447265f9cd102d02d65d88581e94ec59ed9d0052e1e2a5a6f286e9827022',
    '--format csv uncertainty --in inst4.json --alpha 2 --factor g --kind tsallis': 'b2d049fa2e1460dfb52112de5225601cbd4d0102883af1d249c6fcc75f48fbe5',
    '--format csv uncertainty --in inst4.json --alpha 2 --factor g --kind renyi': '478caf23daaad49d5ddd66eddfc1e8cdc292e3c659b0093ff51e6160c199d545',
    '--format csv uncertainty --in inst4.json --alpha 2 --factor f --kind tsallis': '1baceece6bcf3b1354bb446e65004b7f778e67a063b032658a68c540b8d777e8',
    '--format csv uncertainty --in inst4.json --alpha 2 --factor f --kind renyi': 'b4ea9f5862c98b2d44a4d057046ff964e62f6261470fc5656369cef6eeb59d29',
    '--format csv uncertainty --in inst4.json --alpha 2 --factor fbar --kind tsallis': 'ab4bbd9d79f36c485fbd07212c549ea46e58b9cebe12b2a1c128aac210ff863c',
    '--format csv uncertainty --in inst4.json --alpha 2 --factor fbar --kind renyi': 'b23edf06fce87d797d415a1f5b69d65d80b21add371892092901d39d9225d075',
}


def _instance(d: int, n: int, seed: int) -> dict:
    """An instance file's fields: an isometric Kraus set of n operators, a 3-outcome
    POVM of whitened Wishart pieces, the projectors onto a random basis, and a
    full-rank state, all from numpy's default_rng(seed)."""
    rng = np.random.default_rng(seed)

    def ginibre(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    kraus = np.linalg.qr(ginibre(n * d, d))[0].reshape(n, d, d)
    pieces = ginibre(3, d, d)
    pieces = pieces @ pieces.conj().swapaxes(-1, -2)
    w, v = np.linalg.eigh(pieces.sum(axis=0))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    basis = np.linalg.qr(ginibre(d, d))[0]
    z = ginibre(d, d)
    rho = z @ z.conj().T
    fields = {
        "kraus": list(kraus),
        "povm_m": list(inv_root @ pieces @ inv_root),
        "povm_n": [np.outer(b, b.conj()) for b in basis.T],
    }
    fields = {key: [cli.matrix_to_json(m) for m in ms] for key, ms in fields.items()}
    return dict(dim=d, seed=seed, rho=cli.matrix_to_json(rho / np.trace(rho).real), **fields)


def _write_instances(directory) -> None:
    for d, n, seed in INSTANCES:
        with open(os.path.join(directory, f"inst{d}.json"), "w") as fh:
            json.dump(_instance(d, n, seed), fh)


def _digest(command: str) -> str:
    """sha256 of a run's exit code, stdout and stderr, run in-process in the
    directory that holds the instance files."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_instances(directory)
    return directory


def test_table_covers_every_run():
    assert sorted(GOLDEN) == sorted(RUNS)


@pytest.mark.parametrize("command", RUNS)
def test_bytes_unchanged(command, instances, monkeypatch):
    monkeypatch.chdir(instances)
    assert _digest(command) == GOLDEN.get(command), f"exit code, stdout or stderr of `{command}` moved"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        _write_instances(directory)
        os.chdir(directory)
        table = {command: _digest(command) for command in RUNS}
    sys.stdout.write("GOLDEN = {\n" + "".join(f"    {c!r}: {h!r},\n" for c, h in table.items()) + "}\n")
