#include "bpu/bpu.h"

#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

Bpu::Bpu(const BpuConfig &cfg)
    : cfg_(cfg),
      history_(cfg.historyPolicy),
      ras_(cfg.rasDepth)
{
    if (cfg_.direction == DirectionPredictorKind::kTage) {
        tage_ = std::make_unique<Tage>(
            TageConfig::sized(cfg_.tageKilobytes), history_);
    } else if (cfg_.direction == DirectionPredictorKind::kGshare) {
        gshare_ = std::make_unique<Gshare>();
    } else if (cfg_.direction == DirectionPredictorKind::kPerceptron) {
        perceptron_ = std::make_unique<Perceptron>();
    }
    if (cfg_.useLoopPredictor)
        loop_ = std::make_unique<LoopPredictor>(cfg_.loopPredictor);
    ittage_ = std::make_unique<Ittage>(cfg_.ittage, history_);
    btb_ = std::make_unique<Btb>(cfg_.btb);
    if (cfg_.btbHierarchy.enabled)
        btbHier_ = std::make_unique<BtbHierarchy>(cfg_.btbHierarchy, *btb_);
}

FDIP_HOT_PATH std::optional<BtbLevelHit>
Bpu::lookupBranch(Addr pc)
{
    if (btbHier_)
        return btbHier_->lookup(pc);
    const auto h = btb_->lookup(pc);
    if (!h.has_value())
        return std::nullopt;
    return BtbLevelHit{*h, false};
}

FDIP_HOT_PATH void
Bpu::insertBranch(Addr pc, InstClass kind, Addr target, bool taken)
{
    if (btbHier_) {
        btbHier_->install(pc, kind, target, taken);
        return;
    }
    btb_->install(pc, kind, target, taken);
}

FDIP_HOT_PATH DirectionPrediction
Bpu::predictDirection(Addr pc, bool oracle_taken) const
{
    DirectionPrediction p;
    switch (cfg_.direction) {
      case DirectionPredictorKind::kTage:
        p.taken = tage_->predict(pc, p.tageMeta);
        break;
      case DirectionPredictorKind::kGshare:
        p.taken = gshare_->predict(pc);
        break;
      case DirectionPredictorKind::kPerceptron:
        p.taken = perceptron_->predict(pc);
        break;
      case DirectionPredictorKind::kPerfect:
        p.taken = oracle_taken;
        break;
    }
    if (loop_) {
        const LoopPrediction lp = loop_->predict(pc);
        if (lp.valid && lp.taken != p.taken) {
            p.taken = lp.taken;
            p.loopOverride = true;
        }
    }
    return p;
}

FDIP_HOT_PATH void
Bpu::updateDirection(Addr pc, bool taken, const DirectionPrediction &pred)
{
    switch (cfg_.direction) {
      case DirectionPredictorKind::kTage:
        tage_->update(pc, taken, pred.tageMeta);
        break;
      case DirectionPredictorKind::kGshare:
        gshare_->update(pc, taken);
        break;
      case DirectionPredictorKind::kPerceptron:
        perceptron_->update(pc, taken);
        break;
      case DirectionPredictorKind::kPerfect:
        break;
    }
    if (loop_)
        loop_->update(pc, taken);
}

FDIP_HOT_PATH Addr
Bpu::predictIndirect(Addr pc, IttagePrediction &meta) const
{
    return ittage_->predict(pc, meta);
}

FDIP_HOT_PATH void
Bpu::updateIndirect(Addr pc, Addr target, const IttagePrediction &meta)
{
    ittage_->update(pc, target, meta);
}

std::uint64_t
Bpu::predictorStorageBits() const
{
    return directionStorageBits() + indirectStorageBits();
}

std::uint64_t
Bpu::directionStorageBits() const
{
    std::uint64_t bits = 0;
    if (tage_)
        bits += tage_->storageBits();
    if (gshare_)
        bits += gshare_->storageBits();
    if (perceptron_)
        bits += perceptron_->storageBits();
    if (loop_)
        bits += loop_->storageBits();
    return bits;
}

std::uint64_t
Bpu::indirectStorageBits() const
{
    return ittage_->storageBits();
}

std::vector<StorageSchema>
Bpu::directionStorageSchemas() const
{
    std::vector<StorageSchema> schemas;
    if (tage_)
        schemas.push_back(tage_->storageSchema());
    if (gshare_)
        schemas.push_back(gshare_->storageSchema());
    if (perceptron_)
        schemas.push_back(perceptron_->storageSchema());
    if (loop_)
        schemas.push_back(loop_->storageSchema());
    return schemas;
}

StorageSchema
Bpu::indirectStorageSchema() const
{
    return ittage_->storageSchema();
}

std::uint64_t
Bpu::storageBits() const
{
    std::uint64_t bits = predictorStorageBits() + history_.storageBits() +
                         btb_->storageBits() + ras_.storageBits();
    if (btbHier_)
        bits += btbHier_->l1().storageBits();
    return bits;
}

void
Bpu::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    btb_->registerStats(reg, prefix + ".btb");
    if (btbHier_)
        btbHier_->registerStats(reg, prefix + ".btb_hier");
    ras_.registerStats(reg, prefix + ".ras");
    reg.addCounter(prefix + ".storage_bits",
                   [this] { return storageBits(); },
                   "predictors + history + BTB hierarchy + RAS");
    reg.addCounter(prefix + ".direction_storage_bits",
                   [this] { return directionStorageBits(); });
    reg.addCounter(prefix + ".indirect_storage_bits",
                   [this] { return indirectStorageBits(); });
}

} // namespace fdip
