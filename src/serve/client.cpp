#include "src/serve/client.h"

namespace orion::serve {

namespace {

using core::Instruction;

/**
 * Exactly the Galois keys serving this program needs — the program's
 * level-pruned rotation steps plus the bootstrap circuit's (and its
 * conjugation) when the program bootstraps. The server validates the
 * registered bundle against the same derivation.
 */
ckks::GaloisKeys
make_serving_galois(ckks::KeyGenerator& keygen,
                    const core::CompiledNetwork& cn,
                    const ckks::Context& ctx)
{
    const core::GaloisRequirements req = core::required_galois(cn, ctx);
    return keygen.make_galois_keys(
        std::span<const ckks::GaloisKeyRequest>(req.requests),
        req.conjugation, req.conjugation_level);
}

/** The program's (unique) instruction with opcode `op`. */
const Instruction&
find_op(const core::CompiledNetwork& cn, Instruction::Op op,
        const char* name)
{
    for (const Instruction& ins : cn.program) {
        if (ins.op == op) return ins;
    }
    ORION_CHECK(false, "program has no " << name << " instruction");
    // Unreachable; silences the missing-return warning.
    return cn.program.front();
}

/**
 * Ciphertexts of the program's output value. kOutput carries no count
 * of its own, so this is the count of the instruction producing the
 * value kOutput reads.
 */
u64
output_cts(const core::CompiledNetwork& cn)
{
    const int out = find_op(cn, Instruction::Op::kOutput, "kOutput").a;
    for (const Instruction& ins : cn.program) {
        if (ins.value == out) return ins.cts;
    }
    ORION_CHECK(false, "program output value " << out << " has no producer");
    return 0;
}

void
check_batch_count(const core::CompiledNetwork& cn, i64 count)
{
    ORION_CHECK(count >= 1, "batch must have at least one sample");
    ORION_CHECK(count <= cn.batch,
                "batch_count " << count << " > program capacity "
                               << cn.batch << " for layer "
                               << cn.batch_limit_layer);
}

}  // namespace

ServeClient::ServeClient(const core::CompiledNetwork& cn,
                         const ckks::Context& ctx, u64 seed)
    : cn_(&cn), ctx_(&ctx), encoder_(ctx), keygen_(ctx, seed),
      pk_(keygen_.make_public_key()), relin_(keygen_.make_relin_key()),
      galois_(make_serving_galois(keygen_, cn, ctx)),
      encryptor_(ctx, pk_), decryptor_(ctx, keygen_.secret_key())
{
}

ckks::serial::Bytes
ServeClient::key_bundle() const
{
    // Serialize straight from the members: a KeyBundle temporary would
    // deep-copy the (potentially hundreds of MB of) Galois keys.
    return encode_key_bundle(ctx_->params(), relin_, galois_);
}

std::vector<ckks::Ciphertext>
ServeClient::encrypt(const std::vector<std::vector<double>>& samples)
{
    check_batch_count(*cn_, static_cast<i64>(samples.size()));
    std::vector<std::vector<double>> normalized(samples.size());
    for (std::size_t b = 0; b < samples.size(); ++b) {
        const std::vector<double>& input = samples[b];
        ORION_CHECK(input.size() == cn_->input_shape.size(),
                    "input size mismatch: got "
                        << input.size() << ", program expects "
                        << cn_->input_shape.size());
        normalized[b].resize(input.size());
        for (std::size_t i = 0; i < input.size(); ++i) {
            normalized[b][i] = cn_->input_nu * input[i];
        }
    }
    const Instruction& ins = find_op(*cn_, Instruction::Op::kInput, "kInput");
    const u64 slots = cn_->slots;
    const std::vector<double> packed =
        cn_->input_layout.pack_batch(normalized, ins.cts * slots);
    std::vector<ckks::Ciphertext> cts;
    cts.reserve(ins.cts);
    for (u64 c = 0; c < ins.cts; ++c) {
        const std::span<const double> chunk(packed.data() + c * slots, slots);
        cts.push_back(encryptor_.encrypt(
            encoder_.encode(chunk, ins.level, ctx_->scale())));
    }
    return cts;
}

std::vector<std::vector<double>>
ServeClient::decrypt(const std::vector<ckks::Ciphertext>& outputs,
                     int batch_count) const
{
    check_batch_count(*cn_, batch_count);
    const u64 want = output_cts(*cn_);
    ORION_CHECK(outputs.size() == want,
                "decrypt got " << outputs.size()
                               << " output ciphertexts, program produces "
                               << want);
    std::vector<double> slots;
    slots.reserve(outputs.size() * cn_->slots);
    for (const ckks::Ciphertext& ct : outputs) {
        const std::vector<double> part =
            encoder_.decode(decryptor_.decrypt(ct));
        slots.insert(slots.end(), part.begin(), part.end());
    }
    slots.resize(std::max<u64>(cn_->output_layout.total_slots(),
                               slots.size()),
                 0.0);
    std::vector<std::vector<double>> logical =
        cn_->output_layout.unpack_batch(slots, batch_count);
    for (std::vector<double>& sample : logical) {
        sample.resize(cn_->output_size);
        for (double& x : sample) x /= cn_->output_nu;
    }
    return logical;
}

ckks::serial::Bytes
ServeClient::make_request(const std::vector<std::vector<double>>& samples)
{
    ORION_CHECK(session_id_ != 0,
                "no session id: register the key bundle and call "
                "set_session_id first");
    Request req;
    req.session_id = session_id_;
    req.request_id = next_request_id_++;
    req.batch_count = samples.size();
    req.inputs = encrypt(samples);
    return encode_request(req);
}

std::vector<std::vector<double>>
ServeClient::decrypt_response(std::span<const u8> response,
                              int batch_count) const
{
    return decrypt(decode_response(response, *ctx_).outputs, batch_count);
}

Response
ServeClient::parse_response(std::span<const u8> response) const
{
    return decode_response(response, *ctx_);
}

}  // namespace orion::serve
