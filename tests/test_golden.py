"""Fixed-seed trajectories pinned to values recorded before the CAE was
reduced to one path over one flat parameter store.

The refactor changed no arithmetic, so any drift beyond float noise here is
a behaviour change, not a rounding difference.
"""

from __future__ import annotations

import numpy as np

from macrobottle import anm, cae, datagen

RTOL = 1e-10

# train_cae splits the rows by the config's seed (7), not the data's (5)
TERMS = {
    "recon_x": [1.1233462834475627, 1.1029856322705966, 1.0847017979214684,
                1.0711069770116715, 1.0512078688466608],
    "kl_x": [0.055985000825154244, 0.03150616713199844, 0.026178561728632577,
             0.024767230761560125, 0.022108025780994914],
    "cross_x": [0.11447292243002993, 0.06676324541591339, 0.050025063382238624,
                0.04500750862342416, 0.04283409956881984],
    "recon_y": [1.0870997545576093, 1.0636163242621615, 1.0520380533941391,
                1.0417864847728324, 1.0352196822203221],
    "kl_y": [0.07263428858712515, 0.05135872304372883, 0.043598440138774584,
             0.041377879133922844, 0.04004802904815642],
    "cross_y": [0.07019129649780972, 0.025336627562170932, 0.016717789132124218,
                0.015643087667094914, 0.012265447038328003],
}
VAL_LOSS = 1.8880946209080451

# the transform fit of two monotone maps and a cross-map
RES_HEAD = [-0.33158194550053965, -0.2037401299939034, -0.1587190088472628,
            -0.19679951164763132, -0.15782755134958046]
RES_SS = 18.32099027542763
P_SUM = 15.179350150186938
T_SUM = -60.77032254148571


def close(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return bool(np.all(np.abs(got - want) <= RTOL * np.abs(want)))


def test_cae_loss_trajectory():
    pair = datagen.gen_main_synthetic(400, seed=5)
    config = cae.CaeConfig(bottleneck_dim=3, encoder_hidden=(16,),
                           decoder_hidden_per_variable=(8,), epochs=5,
                           batch_size=64, seed=7)
    _, history = cae.train_cae(pair, config)
    assert set(history.terms) == set(TERMS)
    for name, series in TERMS.items():
        assert close(history.terms[name], series), name
    assert close(history.val[-1]["val_loss"], VAL_LOSS)


def test_transform_fit_residuals():
    latents = datagen.gen_main_synthetic(300, seed=8).ground_truth.latents
    x, y = (anm.standardize_vector(latents[name]) for name in ("x2", "y2"))
    config = anm.AnmConfig(hidden=8, epochs=5, batch_size=300)
    net = anm.fit_transform(x, y, config, seed=9)
    p, t, res = anm.residuals(net, x, y)
    assert close(res[:5], RES_HEAD)
    assert close(res @ res, RES_SS)
    assert close(p.sum(), P_SUM)
    assert close(t.sum(), T_SUM)
