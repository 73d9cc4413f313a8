#include "nn/layers.hpp"

namespace waco::nn {

Mat
Linear::forward(const Mat& x)
{
    panicIf(x.cols != w_.w.cols, "Linear input width mismatch");
    x_ = x;
    Mat y;
    matmulNT(x, w_.w, y);
    for (u32 r = 0; r < y.rows; ++r) {
        float* yr = y.row(r);
        for (u32 c = 0; c < y.cols; ++c)
            yr[c] += b_.w.at(0, c);
    }
    return y;
}

Mat
Linear::inference(const Mat& x) const
{
    panicIf(x.cols != w_.w.cols, "Linear input width mismatch");
    Mat y;
    matmulNT(x, w_.w, y);
    for (u32 r = 0; r < y.rows; ++r) {
        float* yr = y.row(r);
        for (u32 c = 0; c < y.cols; ++c)
            yr[c] += b_.w.at(0, c);
    }
    return y;
}

Mat
Linear::backward(const Mat& dy)
{
    panicIf(dy.cols != w_.w.rows || dy.rows != x_.rows,
            "Linear backward shape mismatch");
    // dW += dy^T x ; db += colsum(dy); dx = dy W
    Mat dw;
    matmulTN(dy, x_, dw);
    for (std::size_t i = 0; i < dw.v.size(); ++i)
        w_.g.v[i] += dw.v[i];
    for (u32 r = 0; r < dy.rows; ++r)
        for (u32 c = 0; c < dy.cols; ++c)
            b_.g.at(0, c) += dy.at(r, c);
    Mat dx;
    matmul(dy, w_.w, dx);
    return dx;
}

Mat
ReLU::forward(Mat x)
{
    x_ = x;
    for (auto& v : x.v)
        v = v > 0.0f ? v : 0.0f;
    return x;
}

Mat
ReLU::backward(const Mat& dy)
{
    Mat dx = dy;
    for (std::size_t i = 0; i < dx.v.size(); ++i) {
        if (x_.v[i] <= 0.0f)
            dx.v[i] = 0.0f;
    }
    return dx;
}

MLP::MLP(const std::vector<u32>& dims, Rng& rng)
{
    fatalIf(dims.size() < 2, "MLP needs at least one layer");
    for (std::size_t l = 0; l + 1 < dims.size(); ++l)
        layers_.emplace_back(dims[l], dims[l + 1], rng);
    relus_.resize(layers_.size() - 1);
}

Mat
MLP::forward(const Mat& x)
{
    Mat h = x;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        h = layers_[l].forward(h);
        if (l + 1 < layers_.size())
            h = relus_[l].forward(std::move(h));
    }
    return h;
}

Mat
MLP::inference(const Mat& x) const
{
    Mat h = x;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        h = layers_[l].inference(h);
        if (l + 1 < layers_.size()) {
            for (auto& v : h.v)
                v = v > 0.0f ? v : 0.0f;
        }
    }
    return h;
}

Mat
MLP::inferenceFromFirstPreact(Mat y1) const
{
    panicIf(y1.cols != layers_.front().outDim(),
            "first-layer preactivation width mismatch");
    if (layers_.size() > 1) {
        for (auto& v : y1.v)
            v = v > 0.0f ? v : 0.0f;
    }
    Mat h = std::move(y1);
    for (std::size_t l = 1; l < layers_.size(); ++l) {
        h = layers_[l].inference(h);
        if (l + 1 < layers_.size()) {
            for (auto& v : h.v)
                v = v > 0.0f ? v : 0.0f;
        }
    }
    return h;
}

Mat
MLP::backward(const Mat& dy)
{
    Mat d = dy;
    for (std::size_t l = layers_.size(); l-- > 0;) {
        if (l + 1 < layers_.size())
            d = relus_[l].backward(d);
        d = layers_[l].backward(d);
    }
    return d;
}

void
MLP::collectParams(std::vector<Param*>& out)
{
    for (auto& l : layers_)
        l.collectParams(out);
}

Mat
Embedding::forward(const std::vector<u32>& ids)
{
    ids_ = ids;
    Mat y(static_cast<u32>(ids.size()), table_.w.cols);
    for (u32 r = 0; r < y.rows; ++r) {
        panicIf(ids[r] >= table_.w.rows, "embedding id out of range");
        const float* src = table_.w.row(ids[r]);
        std::copy(src, src + table_.w.cols, y.row(r));
    }
    return y;
}

void
Embedding::backward(const Mat& dy)
{
    panicIf(dy.rows != static_cast<u32>(ids_.size()) ||
                dy.cols != table_.w.cols,
            "embedding backward shape mismatch");
    for (u32 r = 0; r < dy.rows; ++r) {
        float* grow = table_.g.row(ids_[r]);
        const float* drow = dy.row(r);
        for (u32 c = 0; c < dy.cols; ++c)
            grow[c] += drow[c];
    }
}

} // namespace waco::nn
