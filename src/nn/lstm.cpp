#include "rna/nn/lstm.hpp"

#include <algorithm>

#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"
#include "rna/nn/init.hpp"
#include "rna/tensor/ops.hpp"

namespace rna::nn {

namespace {

// Floats hold every integer below 2^24 exactly (the pack's index tables).
constexpr std::size_t kExactIndexLimit = std::size_t{1} << 24;

}  // namespace

// ------------------------------------------------------------ SequencePack

SequencePack::SequencePack(std::span<const Tensor> sequences) {
  RNA_CHECK_MSG(!sequences.empty(), "LSTM needs a non-empty batch");
  const std::size_t batch = sequences.size();
  const std::size_t dim = sequences.front().Cols();
  std::size_t steps = 0;
  std::size_t rows = 0;
  for (const Tensor& seq : sequences) {
    RNA_CHECK_MSG(seq.Rows() > 0, "LSTM needs non-empty sequences");
    RNA_CHECK_MSG(seq.Cols() == dim, "LSTM sequence width mismatch");
    steps = std::max(steps, seq.Rows());
    rows += seq.Rows();
  }
  RNA_CHECK_MSG(batch < kExactIndexLimit && steps < kExactIndexLimit,
                "LSTM batch or sequence too long to pack");

  // n_t = #{T_i > t}: a length histogram, then suffix sums.
  active_ = Tensor({steps});
  for (const Tensor& seq : sequences) active_[seq.Rows() - 1] += 1.0f;
  for (std::size_t t = steps - 1; t-- > 0;) active_[t] += active_[t + 1];

  // Stable counting sort, longest first: the sequences of length L take
  // ranks [n_L, n_{L−1}) in batch order (n_T = 0).
  Tensor next_rank({steps});  // indexed by L − 1
  for (std::size_t t = 0; t + 1 < steps; ++t) next_rank[t] = active_[t + 1];
  rank_ = Tensor({batch});
  for (std::size_t s = 0; s < batch; ++s) {
    float& slot = next_rank[sequences[s].Rows() - 1];
    rank_[static_cast<std::size_t>(slot)] = static_cast<float>(s);
    slot += 1.0f;
  }

  inputs_ = Tensor({rows, dim});
  float* out = inputs_.Data();
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t r = 0; r < Active(t); ++r) {
      const float* row = sequences[SequenceAt(r)].Data() + t * dim;
      out = std::copy(row, row + dim, out);
    }
  }
}

template <class Fn>
void SequencePack::ForEachLast(Fn fn) const {
  std::size_t offset = 0;  // first row of step t
  for (std::size_t t = 0; t < Steps(); ++t) {
    const std::size_t n = Active(t);
    // Ranks [n_{t+1}, n_t) run their last step at t.
    const std::size_t ending = t + 1 < Steps() ? Active(t + 1) : 0;
    for (std::size_t r = ending; r < n; ++r) fn(SequenceAt(r), offset + r);
    offset += n;
  }
}

Tensor SequencePack::GatherLast(const Tensor& packed) const {
  RNA_CHECK_MSG(packed.Rows() == Rows(), "packed rows mismatch");
  const std::size_t width = packed.Cols();
  Tensor last({BatchSize(), width});
  ForEachLast([&](std::size_t s, std::size_t row) {
    const float* src = packed.Data() + row * width;
    std::copy(src, src + width, last.Data() + s * width);
  });
  return last;
}

Tensor SequencePack::ScatterLast(const Tensor& last) const {
  RNA_CHECK_MSG(last.Rows() == BatchSize(), "batch rows mismatch");
  const std::size_t width = last.Cols();
  Tensor packed({Rows(), width});
  ForEachLast([&](std::size_t s, std::size_t row) {
    const float* src = last.Data() + s * width;
    std::copy(src, src + width, packed.Data() + row * width);
  });
  return packed;
}

// --------------------------------------------------------------- LstmLayer

LstmLayer::LstmLayer(std::size_t input_dim, std::size_t hidden_dim,
                     common::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_({input_dim, 4 * hidden_dim}),
      wh_({hidden_dim, 4 * hidden_dim}),
      b_({4 * hidden_dim}),
      dwx_({input_dim, 4 * hidden_dim}),
      dwh_({hidden_dim, 4 * hidden_dim}),
      db_({4 * hidden_dim}) {
  XavierUniform(wx_, input_dim, 4 * hidden_dim, rng);
  XavierUniform(wh_, hidden_dim, 4 * hidden_dim, rng);
  // Forget-gate bias starts at 1 so early training does not erase the cell.
  for (std::size_t h = 0; h < hidden_dim_; ++h) b_[hidden_dim_ + h] = 1.0f;
}

void LstmLayer::Step(const float* x, std::size_t n, const float* h_prev,
                     const float* c_prev, float* z, float* c, float* tc,
                     float* h) const {
  const std::size_t h_dim = hidden_dim_;
  const std::size_t g_dim = 4 * h_dim;
  // z = x_t·Wx + b + h_{t−1}·Wh, then the gates are activated in place.
  common::simd::MatMulNN(x, wx_.Data(), z, n, input_dim_, g_dim, 1.0f, 0.0f);
  for (std::size_t r = 0; r < n; ++r) {
    common::simd::AddInto({z + r * g_dim, g_dim}, b_.Flat());
  }
  if (h_prev != nullptr) {
    common::simd::MatMulNN(h_prev, wh_.Data(), z, n, h_dim, g_dim, 1.0f,
                           1.0f);
  }
  for (std::size_t r = 0; r < n; ++r) {
    float* zr = z + r * g_dim;
    common::simd::Sigmoid(zr, zr, 2 * h_dim);  // i, f
    common::simd::Tanh(zr + 2 * h_dim, zr + 2 * h_dim, h_dim);
    common::simd::Sigmoid(zr + 3 * h_dim, zr + 3 * h_dim, h_dim);
    const float* gi = zr;
    const float* gf = zr + h_dim;
    const float* gg = zr + 2 * h_dim;
    float* cr = c + r * h_dim;
    for (std::size_t hh = 0; hh < h_dim; ++hh) {
      const float cp = c_prev != nullptr ? c_prev[r * h_dim + hh] : 0.0f;
      cr[hh] = gf[hh] * cp + gi[hh] * gg[hh];
    }
  }
  common::simd::Tanh(c, tc, n * h_dim);
  for (std::size_t r = 0; r < n; ++r) {
    const float* go = z + r * g_dim + 3 * h_dim;
    for (std::size_t hh = 0; hh < h_dim; ++hh) {
      h[r * h_dim + hh] = go[hh] * tc[r * h_dim + hh];
    }
  }
}

Tensor LstmLayer::Forward(const SequencePack& pack) {
  const Tensor& x = pack.Inputs();
  const std::size_t rows = pack.Rows();
  const std::size_t h_dim = hidden_dim_;
  const std::size_t g_dim = 4 * h_dim;
  RNA_CHECK_MSG(x.Cols() == input_dim_, "LSTM input shape mismatch");

  gates_ = Tensor({rows, g_dim});
  cell_ = Tensor({rows, h_dim});
  tanh_cell_ = Tensor({rows, h_dim});
  hidden_ = Tensor({rows, h_dim});
  std::size_t prev = 0;    // first row of step t − 1
  std::size_t offset = 0;  // first row of step t
  for (std::size_t t = 0; t < pack.Steps(); ++t) {
    // Step t's n rows continue the first n of step t − 1.
    Step(x.Data() + offset * input_dim_, pack.Active(t),
         t > 0 ? hidden_.Data() + prev * h_dim : nullptr,
         t > 0 ? cell_.Data() + prev * h_dim : nullptr,
         gates_.Data() + offset * g_dim, cell_.Data() + offset * h_dim,
         tanh_cell_.Data() + offset * h_dim, hidden_.Data() + offset * h_dim);
    prev = offset;
    offset += pack.Active(t);
  }
  return hidden_;
}

Tensor LstmLayer::ForwardLast(const SequencePack& pack) const {
  const Tensor& x = pack.Inputs();
  const std::size_t batch = pack.BatchSize();
  const std::size_t h_dim = hidden_dim_;
  RNA_CHECK_MSG(x.Cols() == input_dim_, "LSTM input shape mismatch");

  // One row per rank. Step t's n rows are the first n of step t − 1, so
  // each step updates its prefix in place (tanh(c) goes through the hidden
  // rows), and a rank's row keeps its last step's state once it stops.
  Tensor gates({batch, 4 * h_dim});
  Tensor cell({batch, h_dim});
  Tensor hidden({batch, h_dim});
  std::size_t offset = 0;  // first row of step t in x
  for (std::size_t t = 0; t < pack.Steps(); ++t) {
    Step(x.Data() + offset * input_dim_, pack.Active(t),
         t > 0 ? hidden.Data() : nullptr, t > 0 ? cell.Data() : nullptr,
         gates.Data(), cell.Data(), hidden.Data(), hidden.Data());
    offset += pack.Active(t);
  }

  Tensor last({batch, h_dim});
  for (std::size_t r = 0; r < batch; ++r) {
    const float* src = hidden.Data() + r * h_dim;
    std::copy(src, src + h_dim, last.Data() + pack.SequenceAt(r) * h_dim);
  }
  return last;
}

void LstmLayer::Backward(const SequencePack& pack, const Tensor& dh) {
  const std::size_t rows = pack.Rows();
  const std::size_t h_dim = hidden_dim_;
  const std::size_t g_dim = 4 * h_dim;
  RNA_CHECK_MSG(hidden_.Rows() == rows, "LSTM backward without its forward");
  RNA_CHECK_MSG(dh.Rows() == rows && dh.Cols() == h_dim,
                "LSTM dh shape mismatch");

  Tensor dz({rows, g_dim});  // gradient on every pre-activation z_t
  // Gradients flowing into h_t / c_t, one row per rank. A rank's rows stay
  // zero until its last step, where BPTT reaches it.
  Tensor dh_rec({pack.BatchSize(), h_dim});
  Tensor dc({pack.BatchSize(), h_dim});

  std::size_t offset = rows;  // first row of step t
  for (std::size_t t = pack.Steps(); t-- > 0;) {
    const std::size_t n = pack.Active(t);
    offset -= n;
    const std::size_t prev = t > 0 ? offset - pack.Active(t - 1) : 0;
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t row = offset + r;
      float* dhr = dh_rec.Data() + r * h_dim;
      float* dcr = dc.Data() + r * h_dim;
      // Direct gradient on h_t from above, plus the recurrent path.
      const float* dh_row = dh.Data() + row * h_dim;
      for (std::size_t hh = 0; hh < h_dim; ++hh) dhr[hh] += dh_row[hh];

      const float* gi = gates_.Data() + row * g_dim;
      const float* gf = gi + h_dim;
      const float* gg = gi + 2 * h_dim;
      const float* go = gi + 3 * h_dim;
      const float* tct = tanh_cell_.Data() + row * h_dim;
      const float* c_prev =
          t > 0 ? cell_.Data() + (prev + r) * h_dim : nullptr;
      float* dzr = dz.Data() + row * g_dim;
      for (std::size_t hh = 0; hh < h_dim; ++hh) {
        const float d_o = dhr[hh] * tct[hh];
        const float d_c =
            dcr[hh] + dhr[hh] * go[hh] * (1.0f - tct[hh] * tct[hh]);
        const float d_i = d_c * gg[hh];
        const float d_g = d_c * gi[hh];
        const float d_f = d_c * (c_prev != nullptr ? c_prev[hh] : 0.0f);
        dcr[hh] = d_c * gf[hh];  // flows to c_{t−1}

        dzr[hh] = d_i * gi[hh] * (1.0f - gi[hh]);
        dzr[h_dim + hh] = d_f * gf[hh] * (1.0f - gf[hh]);
        dzr[2 * h_dim + hh] = d_g * (1.0f - gg[hh] * gg[hh]);
        dzr[3 * h_dim + hh] = d_o * go[hh] * (1.0f - go[hh]);
      }
    }
    if (t > 0) {
      // dh_{t−1} = dz_t·Whᵀ for the ranks that continue into step t − 1.
      common::simd::MatMulNT(dz.Data() + offset * g_dim, wh_.Data(),
                             dh_rec.Data(), n, g_dim, h_dim, 1.0f, 0.0f);
    }
  }

  // Parameter gradients over every (sequence, step) row: dWx += xᵀ·dz,
  // db += Σ dz, and dWh += h_{t−1}ᵀ·dz_t step by step (step t's rows pair
  // with the first n_t rows of step t − 1).
  tensor::MatMulTN(pack.Inputs(), dz, dwx_, 1.0f, 1.0f);
  Tensor dz_sum({g_dim});
  tensor::SumRows(dz, dz_sum.Flat());
  tensor::Axpy(1.0f, dz_sum.Flat(), db_.Flat());
  std::size_t prev = 0;
  offset = pack.Active(0);
  for (std::size_t t = 1; t < pack.Steps(); ++t) {
    const std::size_t n = pack.Active(t);
    common::simd::MatMulTN(hidden_.Data() + prev * h_dim,
                           dz.Data() + offset * g_dim, dwh_.Data(), h_dim, n,
                           g_dim, 1.0f, 1.0f);
    prev = offset;
    offset += n;
  }
}

}  // namespace rna::nn
