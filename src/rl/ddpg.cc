#include "rl/ddpg.hh"

#include <algorithm>
#include <cmath>

namespace isw::rl {

namespace {

/** Horizontally concatenate two matrices with equal row counts. */
ml::Matrix
hconcat(const ml::Matrix &a, const ml::Matrix &b)
{
    ml::Matrix out(a.rows(), a.cols() + b.cols());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        std::copy(a.row(r).begin(), a.row(r).end(),
                  out.data() + r * out.cols());
        std::copy(b.row(r).begin(), b.row(r).end(),
                  out.data() + r * out.cols() + a.cols());
    }
    return out;
}

} // namespace

DdpgAgent::DdpgAgent(const AgentConfig &cfg, std::unique_ptr<Environment> env,
                     sim::Rng &weight_rng, sim::Rng act_rng)
    : AgentBase(cfg, std::move(env), act_rng),
      replay_(cfg.replay_capacity)
{
    const std::size_t obs = env_->observationDim();
    const std::size_t act = env_->actionDim();
    actor_ = ml::Network::mlp<ml::Tanh>({obs, cfg_.hidden, cfg_.hidden, act},
                                        weight_rng, "actor");
    actor_.add<ml::Tanh>(); // bound actions to [-1, 1]
    critic_ = ml::Network::mlp<ml::Tanh>(
        {obs + act, cfg_.hidden, cfg_.hidden, 1}, weight_rng, "critic");

    sim::Rng dummy(0);
    actor_target_ = ml::Network::mlp<ml::Tanh>(
        {obs, cfg_.hidden, cfg_.hidden, act}, dummy, "actor_t");
    actor_target_.add<ml::Tanh>();
    critic_target_ = ml::Network::mlp<ml::Tanh>(
        {obs + act, cfg_.hidden, cfg_.hidden, 1}, dummy, "critic_t");

    actor_params_.addNetwork(actor_);
    critic_params_.addNetwork(critic_);
    params_.addNetwork(actor_);
    params_.addNetwork(critic_);
    target_params_.addNetwork(actor_target_);
    target_params_.addNetwork(critic_target_);

    // Targets start as exact copies.
    ml::Vec w;
    params_.copyValuesTo(w);
    target_params_.setValues(w);

    opt_ = std::make_unique<ml::Adam>(cfg_.lr);
}

ml::Vec
DdpgAgent::act(const ml::Vec &obs)
{
    ml::Matrix x(1, obs.size());
    std::copy(obs.begin(), obs.end(), x.data());
    const ml::Matrix a = actor_.forward(x);
    return {a.row(0).begin(), a.row(0).end()};
}

ml::Vec
DdpgAgent::actNoisy(const ml::Vec &obs)
{
    ml::Vec a = act(obs);
    for (float &v : a) {
        v += cfg_.noise_std * static_cast<float>(rng_.normal());
        v = std::clamp(v, -1.0f, 1.0f);
    }
    return a;
}

void
DdpgAgent::postUpdate()
{
    // Polyak averaging toward the live networks.
    ml::Vec live;
    params_.copyValuesTo(live);
    ml::Vec tgt;
    target_params_.copyValuesTo(tgt);
    for (std::size_t i = 0; i < live.size(); ++i)
        tgt[i] += cfg_.tau * (live[i] - tgt[i]);
    target_params_.setValues(tgt);
}

const ml::Vec &
DdpgAgent::computeGradient()
{
    // --- Experience collection ---------------------------------------
    for (std::size_t s = 0; s < cfg_.steps_per_iter; ++s) {
        ml::Vec a = actNoisy(cur_obs_);
        StepResult res = env_->step(std::span<const float>(a));
        trackReward(res.reward, res.done);
        replay_.push(
            Transition{cur_obs_, a, res.reward, res.observation, res.done});
        cur_obs_ = res.done ? env_->reset() : std::move(res.observation);
    }

    params_.zeroGrads();
    grad_.assign(params_.count(), 0.0f);
    if (replay_.size() < cfg_.warmup)
        return grad_;

    replay_.sample(cfg_.batch_size, rng_, batch_);
    const std::size_t batch = batch_.size();
    const std::size_t obs_dim = env_->observationDim();
    const std::size_t act_dim = env_->actionDim();
    ml::Matrix s(batch, obs_dim), a(batch, act_dim), s2(batch, obs_dim);
    for (std::size_t i = 0; i < batch; ++i) {
        std::copy(batch_[i]->state.begin(), batch_[i]->state.end(),
                  s.data() + i * obs_dim);
        std::copy(batch_[i]->action.begin(), batch_[i]->action.end(),
                  a.data() + i * act_dim);
        std::copy(batch_[i]->next_state.begin(), batch_[i]->next_state.end(),
                  s2.data() + i * obs_dim);
    }
    const float inv_b = 1.0f / static_cast<float>(batch);

    // --- Actor pass first, so its gradient can be isolated from the
    // critic parameter gradients it incidentally produces. -------------
    const ml::Matrix a_pred = actor_.forward(s);
    critic_.forward(hconcat(s, a_pred));
    ml::Matrix dq_actor(batch, 1);
    for (std::size_t i = 0; i < batch; ++i)
        dq_actor.at(i, 0) = -inv_b; // maximize Q(s, actor(s))
    const ml::Matrix dsa = critic_.backward(dq_actor);
    ml::Matrix da(batch, act_dim);
    for (std::size_t i = 0; i < batch; ++i) {
        for (std::size_t j = 0; j < act_dim; ++j)
            da.at(i, j) = dsa.at(i, obs_dim + j);
    }
    actor_.backwardParams(da);
    ml::Vec actor_grad;
    actor_params_.copyGradsTo(actor_grad);

    // --- Critic TD pass (fresh gradients). ------------------------------
    params_.zeroGrads();
    const ml::Matrix a2 = actor_target_.forward(s2);
    const ml::Matrix q2 = critic_target_.forward(hconcat(s2, a2));
    const ml::Matrix q_pred = critic_.forward(hconcat(s, a));
    ml::Matrix dq(batch, 1);
    for (std::size_t i = 0; i < batch; ++i) {
        const float y =
            batch_[i]->reward +
            (batch_[i]->done ? 0.0f : cfg_.gamma * q2.at(i, 0));
        dq.at(i, 0) = 2.0f * (q_pred.at(i, 0) - y) * inv_b;
    }
    critic_.backwardParams(dq);
    actor_params_.accumulateGrads(actor_grad);

    params_.clipGradNorm(cfg_.grad_clip);
    params_.copyGradsTo(grad_);
    return grad_;
}

} // namespace isw::rl
