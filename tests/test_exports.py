import re
from pathlib import Path

import comhash

README = Path(__file__).resolve().parents[1] / "README.md"

# every name the package exported when this list was written; names may be
# added, but none of these may go
EXPORTED = """
    element_from_bytes element_to_bytes params_digest params_from_bytes
    params_to_bytes scalar_from_bytes scalar_to_bytes
    AuthenticationError BenchError ComhashError EncodingError FrameError
    GroupError ProtocolStateError TransportError
    ErrorCode Frame MsgType decode_frame encode_frame
    EcParams GroupParams ModpMode ModpParams derive_second_generator
    generate_group modp_group secp256k1 toy_ec toy_modp_primitive
    toy_modp_subgroup validate_group
    ParticipantKeys collision_to_dlog combine_shares cvhp member_share
    owner_share reference_digest
    FaultPlan run_basic_session
    OwnerRole ParticipantSession Phase ServerSession participant_respond
    server_absorb server_begin server_finalize
    MultiplyRole MultiplySession Polynomial QuotientTable
    SealedPolynomialEvaluator ThresholdParticipant ThresholdServer
    lagrange_at_zero lagrange_from_quotients multiply_step poly_eval
    ratio_from_quotients run_multiply run_threshold_session
    __version__
""".split()


def test_every_exported_name_is_still_exported():
    assert len(EXPORTED) == len(set(EXPORTED)) == 64
    assert [name for name in EXPORTED if not hasattr(comhash, name)] == []



def test_the_readme_library_example_runs():
    # every ```python block of the README, run as written
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
