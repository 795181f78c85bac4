"""Readout + depolarizing noise study on the 2-qubit pairing case.

A single pair on two levels fits in 2 qubits plus the test ancilla.  Each
point runs single-step Hadamard-test circuits through a depolarizing channel
after every gate and a confused readout, then applies the two corrections:
inversion of the known confusion matrix, and the reference map calibrated at
t = 0 where F = 1 is known exactly.  Equivalent to `gfsim noise` with the
builtin preset (fewer shots here to keep the demo quick).
"""

import json
from pathlib import Path

from gfsim.cli import main
from gfsim.config import NOISE_PRESET
from gfsim.genfunc import GfSeries

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

config = json.loads(json.dumps(NOISE_PRESET))
config["shots"] = 10**5  # preset uses 10^6; the structure is visible sooner
cfg_path = OUT / "noise_config.json"
cfg_path.write_text(json.dumps(config, indent=2))

print(f"confusion: p(read 1 | true 0) = {config['noise']['readout']['p01']}, "
      f"p(read 0 | true 1) = {config['noise']['readout']['p10']}; "
      f"p_dep = {config['noise']['p_dep']} per touched qubit per gate")
print(f"single Trotter step per point, {config['shots']} shots, "
      f"t*de up to {config['time_grid']['t_max']}")
print()

rc = main(["noise", "--config", str(cfg_path), "--out-dir", str(OUT)])
assert rc == 0

exact = GfSeries.from_csv(OUT / "gf_exact.csv")
raw = GfSeries.from_csv(OUT / "gf_raw.csv")
mitigated = GfSeries.from_csv(OUT / "gf_mitigated.csv")

print()
print("  t      Re exact   Re raw    Re fixed    Im exact   Im raw    Im fixed")
for k in range(0, exact.t.size, 4):
    print(
        f" {exact.t[k]:5.2f}   {exact.re[k]:+.4f}   {raw.re[k]:+.4f}   {mitigated.re[k]:+.4f}"
        f"     {exact.im[k]:+.4f}   {raw.im[k]:+.4f}   {mitigated.im[k]:+.4f}"
    )

manifest = json.loads((OUT / "noise_manifest.json").read_text())
print()
print(f"rms vs exact: raw {manifest['rms_raw']:.4f} -> mitigated {manifest['rms_mitigated']:.4f} "
      f"(ratio {manifest['rms_mitigated'] / manifest['rms_raw']:.3f})")
print(f"CSVs in {OUT}")
