#ifndef ORION_SRC_CORE_ORION_H_
#define ORION_SRC_CORE_ORION_H_

/**
 * @file
 * Umbrella header: the public Orion API.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   auto net = orion::nn::Sequential({
 *       orion::nn::Conv2d(1, 4, 3, {.stride = 2, .pad = 1}),
 *       orion::nn::Square(),
 *       orion::nn::Flatten(),
 *       orion::nn::Linear(64, 10),
 *   });
 *   orion::Session session = orion::Session::toy();
 *   session.compile(*net, 1, 8, 8);
 *   auto result = session.run(image);
 */

#include "src/ckks/ckks.h"
#include "src/ckks/serial.h"
#include "src/core/compiler.h"
#include "src/core/cost_model.h"
#include "src/core/executor.h"
#include "src/core/placement.h"
#include "src/core/session.h"
#include "src/core/thread_pool.h"
#include "src/linalg/linalg.h"
#include "src/nn/models.h"
#include "src/nn/module.h"
#include "src/nn/network.h"

#endif  // ORION_SRC_CORE_ORION_H_
