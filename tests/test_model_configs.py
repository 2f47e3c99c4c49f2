"""Range checks of the model configs: each bad field raises ``ValueError``
naming it, which ``runconfig.apply_section`` turns into a message naming
the ``model.*`` key."""

import pytest

from pageseq.fusion import FusionConfig
from pageseq.runconfig import ConfigError, apply_section
from pageseq.seqmodels import SeqModelConfig
from pageseq.textcnn import TextCnnConfig


def _seq(**kw):
    return SeqModelConfig(**{"variant": "bilstm-f", "input_dim": 8, **kw})


@pytest.mark.parametrize("make, name", [
    (lambda: TextCnnConfig(max_tokens=0), "max_tokens"),
    (lambda: TextCnnConfig(embed_dim=-3), "embed_dim"),
    (lambda: TextCnnConfig(filters_per_size=0), "filters_per_size"),
    (lambda: TextCnnConfig(blocks=0), "blocks"),
    (lambda: TextCnnConfig(pool_size=0), "pool_size"),
    (lambda: TextCnnConfig(final_pool_out_len=0), "final_pool_out_len"),
    (lambda: TextCnnConfig(fc_hidden=0), "fc_hidden"),
    (lambda: TextCnnConfig(kernel_sizes=()), "kernel_sizes"),
    (lambda: TextCnnConfig(kernel_sizes=(3, 3)), "kernel_sizes"),
    (lambda: TextCnnConfig(kernel_sizes=(0, 3)), "kernel_sizes"),
    (lambda: TextCnnConfig(kernel_sizes=(2.5,)), "kernel_sizes"),
    (lambda: TextCnnConfig(dropout=1.0), "dropout"),
    # 3 pools of 2 leave 39 // 8 = 4 positions for an out_len of 5
    (lambda: TextCnnConfig(max_tokens=39), "max_tokens"),
    # no position is left, and the check takes no 2**(10**12)
    (lambda: TextCnnConfig(blocks=10**12), "max_tokens"),
    (lambda: FusionConfig(text_dim=0), "text_dim"),
    (lambda: FusionConfig(image_dim=0), "image_dim"),
    (lambda: FusionConfig(hidden=0), "hidden"),
    (lambda: FusionConfig(dropout=-0.1), "dropout"),
    (lambda: FusionConfig(missing_mode="mean"), "missing_mode"),
    (lambda: _seq(variant="transformer"), "variant"),
    (lambda: _seq(input_dim=0), "input_dim"),
    (lambda: _seq(lstm_hidden=0), "lstm_hidden"),
    (lambda: _seq(pre_fc=0), "pre_fc"),
    (lambda: _seq(dropout=1.5), "dropout"),
])
def test_out_of_range_field_is_named(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        make()


def test_defaults_and_the_smallest_fitting_length_pass():
    TextCnnConfig()
    FusionConfig()
    _seq()
    # 40 // 2**3 = 5 positions left for the default out_len of 5
    assert TextCnnConfig(max_tokens=40).max_tokens == 40
    # pools of 1 keep every position, past the 9 bits of max_tokens too
    assert TextCnnConfig(pool_size=1, blocks=12).blocks == 12


def test_apply_section_names_the_model_key():
    config = TextCnnConfig()
    with pytest.raises(ConfigError, match="^model.pool_size must be at least "
                                          "1, got 0$"):
        apply_section(config, "model", {"model.pool_size": "0"})
