"""Fixed-seed trajectories pinned to values recorded before the CAE was
reduced to one path over one flat parameter store.

The refactor changed no arithmetic, so any drift beyond float noise here is
a behaviour change, not a rounding difference.
"""

from __future__ import annotations

import numpy as np

from macrobottle import anm, cae, datagen

RTOL = 1e-10

TERMS = {
    "recon_x": [1.1306430571430095, 1.0987114528091306, 1.0847954290098298,
                1.064204754596335, 1.0506134217618741],
    "kl_x": [0.05551701180257017, 0.03075100697408965, 0.025781306075173406,
             0.02396680537472644, 0.021009730035692547],
    "cross_x": [0.1152844028046454, 0.06576944632679135, 0.04900831849346355,
                0.04704335897981305, 0.04609923208709034],
    "recon_y": [1.073759618499504, 1.0707400998899652, 1.0514153269958064,
                1.036831667607272, 1.0336156860281025],
    "kl_y": [0.07219238823798864, 0.049849586414150424, 0.0424129599123946,
             0.041820920969730245, 0.04140657124032475],
    "cross_y": [0.07011033320064808, 0.02527424362713441, 0.01649792537756493,
                0.015787965051642292, 0.011657477241239209],
}
VAL_LOSS = 1.7338779990657676

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
    x, y = latents["x2"], latents["y2"]
    config = anm.AnmConfig(hidden=8, epochs=5, batch_size=300)
    net = anm.fit_transform(x, y, "x_to_y", config, seed=9)
    p, t, res = anm.residuals(net, x, y)
    assert close(res[:5], RES_HEAD)
    assert close(res @ res, RES_SS)
    assert close(p.sum(), P_SUM)
    assert close(t.sum(), T_SUM)
