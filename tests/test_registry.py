"""The registry of every model: ``state_dict()`` names, order, shapes and
dtypes, pinned for each CLI family on tiny configs, and ``zero_grads``.

Checkpoints are read by these names, and ``bilstm`` and ``bilstm-f``
have no committed checkpoint that would catch a rename.  Each layout is
one "name shape dtype" line per array, in ``state_dict()`` order.
"""

from dataclasses import asdict

import pytest

from pageseq import cli
from pageseq.crf import CrfModel
from pageseq.fusion import FusionConfig, MlpClassifier
from pageseq.seqmodels import VARIANTS, SeqModelConfig
from pageseq.text import Vocab
from pageseq.textcnn import TextCnnConfig

TEXT_CNN = asdict(TextCnnConfig(max_tokens=8, embed_dim=4, filters_per_size=3,
                                kernel_sizes=(2, 3), blocks=2,
                                final_pool_out_len=2, fc_hidden=5))
FUSION = dict(text_dim=5, image_dim=4, hidden=6)
CONFIGS = {
    "textcnn": TEXT_CNN, "textcnn-w": TEXT_CNN,
    "fusion": asdict(FusionConfig(**FUSION)),
    "fusion-zero": asdict(FusionConfig(**FUSION, missing_mode="zero")),
    "crf": {"n_tags": 12, "n_features": 6},
    **{v: asdict(SeqModelConfig(v, input_dim=6, lstm_hidden=3, pre_fc=5))
       for v in VARIANTS},
}

TEXT_CNN_LAYOUT = """
embedding.weight 5,4 float32
block0.conv2.weight 8,3 float32
block0.conv2.bias 3 float32
block0.conv3.weight 12,3 float32
block0.conv3.bias 3 float32
block0.bn.gamma 6 float32
block0.bn.beta 6 float32
block1.conv2.weight 12,3 float32
block1.conv2.bias 3 float32
block1.conv3.weight 18,3 float32
block1.conv3.bias 3 float32
block1.bn.gamma 6 float32
block1.bn.beta 6 float32
fc1.weight 12,5 float32
fc1.bias 5 float32
fc2.weight 5,6 float32
fc2.bias 6 float32
buf.block0.bn.running_mean 6 float32
buf.block0.bn.running_var 6 float32
buf.block1.bn.running_mean 6 float32
buf.block1.bn.running_var 6 float32
"""
FUSION_LAYOUT = """
missing_text 5 float32
missing_image 4 float32
bn0.gamma 9 float32
bn0.beta 9 float32
fc1.weight 9,6 float32
fc1.bias 6 float32
bn1.gamma 6 float32
bn1.beta 6 float32
fc2.weight 6,6 float32
fc2.bias 6 float32
buf.bn0.running_mean 9 float32
buf.bn0.running_var 9 float32
buf.bn1.running_mean 6 float32
buf.bn1.running_var 6 float32
"""
LAYOUTS = {
    "textcnn": TEXT_CNN_LAYOUT, "textcnn-w": TEXT_CNN_LAYOUT,
    "fusion": FUSION_LAYOUT, "fusion-zero": FUSION_LAYOUT,
    "crf": """
transitions 12,12 float64
start 12 float64
stop 12 float64
emit_w 6,12 float64
emit_b 12 float64
""",
    "bilstm": """
bilstm.fwd.w_x 6,12 float32
bilstm.fwd.w_h 3,12 float32
bilstm.fwd.bias 12 float32
bilstm.bwd.w_x 6,12 float32
bilstm.bwd.w_h 3,12 float32
bilstm.bwd.bias 12 float32
bn_out.gamma 6 float32
bn_out.beta 6 float32
fc_out.weight 6,12 float32
fc_out.bias 12 float32
buf.bn_out.running_mean 6 float32
buf.bn_out.running_var 6 float32
""",
    "bilstm-crf": """
bilstm.fwd.w_x 6,12 float32
bilstm.fwd.w_h 3,12 float32
bilstm.fwd.bias 12 float32
bilstm.bwd.w_x 6,12 float32
bilstm.bwd.w_h 3,12 float32
bilstm.bwd.bias 12 float32
bn_out.gamma 6 float32
bn_out.beta 6 float32
fc_out.weight 6,12 float32
fc_out.bias 12 float32
crf.transitions 12,12 float64
crf.start 12 float64
crf.stop 12 float64
buf.bn_out.running_mean 6 float32
buf.bn_out.running_var 6 float32
""",
    "bilstm-f": """
bn_in.gamma 6 float32
bn_in.beta 6 float32
fc_in.weight 6,5 float32
fc_in.bias 5 float32
bilstm.fwd.w_x 5,12 float32
bilstm.fwd.w_h 3,12 float32
bilstm.fwd.bias 12 float32
bilstm.bwd.w_x 5,12 float32
bilstm.bwd.w_h 3,12 float32
bilstm.bwd.bias 12 float32
bn_out.gamma 6 float32
bn_out.beta 6 float32
fc_out.weight 6,12 float32
fc_out.bias 12 float32
buf.bn_in.running_mean 6 float32
buf.bn_in.running_var 6 float32
buf.bn_out.running_mean 6 float32
buf.bn_out.running_var 6 float32
""",
    "bilstm-f-crf": """
bn_in.gamma 6 float32
bn_in.beta 6 float32
fc_in.weight 6,5 float32
fc_in.bias 5 float32
bilstm.fwd.w_x 5,12 float32
bilstm.fwd.w_h 3,12 float32
bilstm.fwd.bias 12 float32
bilstm.bwd.w_x 5,12 float32
bilstm.bwd.w_h 3,12 float32
bilstm.bwd.bias 12 float32
bn_out.gamma 6 float32
bn_out.beta 6 float32
fc_out.weight 6,12 float32
fc_out.bias 12 float32
crf.transitions 12,12 float64
crf.start 12 float64
crf.stop 12 float64
buf.bn_in.running_mean 6 float32
buf.bn_in.running_var 6 float32
buf.bn_out.running_mean 6 float32
buf.bn_out.running_var 6 float32
""",
}
MLP_LAYOUT = """
bn0.gamma 4 float32
bn0.beta 4 float32
fc1.weight 4,5 float32
fc1.bias 5 float32
bn1.gamma 5 float32
bn1.beta 5 float32
fc2.weight 5,6 float32
fc2.bias 6 float32
buf.bn0.running_mean 4 float32
buf.bn0.running_var 4 float32
buf.bn1.running_mean 5 float32
buf.bn1.running_var 5 float32
"""


def _family_model(name):
    aux = Vocab(["a", "b", "c"]) if cli.FAMILIES[name].vocab else None
    return cli.FAMILIES[name].model(CONFIGS[name], 0, aux)


def _layout(model):
    return "\n".join(f"{name} {','.join(map(str, v.shape))} {v.dtype}"
                     for name, v in model.state_dict().items())


def test_every_cli_family_is_pinned():
    assert set(LAYOUTS) == set(cli.FAMILIES)


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_state_dict_layout(name):
    assert _layout(_family_model(name)) == LAYOUTS[name].strip()


def test_image_mlp_state_dict_layout():
    assert _layout(MlpClassifier(4, 5)) == MLP_LAYOUT.strip()


def test_crf_model_params_are_flat():
    """Benchmark code reads and writes ``CrfModel.params`` by these names."""
    assert list(CrfModel(12, 6).params) == ["transitions", "start", "stop",
                                            "emit_w", "emit_b"]


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_zero_grads_zeroes_every_named_grad(name):
    """Also the gradients that the CRF heads and the FM's missing vectors
    accumulate into from their own code."""
    model = _family_model(name)
    owners = [model] + [getattr(model, attr) for attr in ("head", "crf")
                        if hasattr(model, attr)]
    grads = [*model.named_grads().values(),
             *(g for owner in owners for g in owner.grads.values())]
    for g in grads:
        g[...] = 1
    model.zero_grads()
    assert not any(g.any() for g in grads)
    assert list(model.named_grads()) == list(model.named_params())
