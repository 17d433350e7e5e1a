/*
 * The sorted-slot multiset chain of one ensemble lane, in C.
 *
 * slot_run() is SlotLane's Python loop (repro/engine/ensemble/lane.py)
 * statement for statement: the same draws in the same order, the same
 * responder-ticket skip, the same boundary-slot rewrites.  Pairs the
 * lane has not seen yet resolve from the cell's global id-pair tables
 * (KernelTransitionCache._post0/_post1), interning lane-local ids in
 * the order Python would (post-initiator, then post-responder), so a
 * lane stays bit-identical to its solo run.
 *
 * A call returns to Python at the first of:
 *   SLOT_BUDGET  max_steps interactions ran;
 *   SLOT_TARGET  an interaction brought the leader count to target;
 *   SLOT_REFILL  the draw batch is used up (Python draws the next);
 *   SLOT_MISS    the cell has never resolved the pair (pre0, pre1):
 *                Python resolves it and hands the posts to slot_store();
 *   SLOT_GROW    a first-sight pair needs more local ids than the local
 *                tables may hold.
 * MISS and GROW leave the cursor on the draw that caused them, so the
 * next call replays it.  No call runs past one draw batch.
 */

#include <stdint.h>
#include <stddef.h>

enum {
    SLOT_BUDGET = 0,
    SLOT_TARGET = 1,
    SLOT_REFILL = 2,
    SLOT_MISS = 3,
    SLOT_GROW = 4,
};

/* Field order and types mirror repro.engine.native.SlotLaneState. */
typedef struct {
    /* the current draw batch: initiator and responder tickets */
    const int64_t *d1;
    const int64_t *d2;
    int64_t batch;
    int64_t cursor;
    /* configuration: n local ids in sorted order, inclusive prefix
       counts per local id */
    int32_t *slots;
    int32_t *prefix;
    int64_t n;
    int64_t lead;
    int64_t target; /* < 0: never stop at a leader count */
    /* lane-local pair tables, cap x cap, -1 = pair not seen */
    int32_t *post0;
    int32_t *post1;
    int64_t cap;
    int64_t locals; /* local ids interned so far */
    int64_t limit;  /* local ids the tables may hold */
    int8_t *mark;   /* leader mark per local id */
    int32_t *global_of; /* local id -> global id */
    int32_t *local_of;  /* global id -> local id, -1 = not in this lane */
    /* the cell's global pair tables (NULL once the cache dropped them) */
    const int32_t *gpost0;
    const int32_t *gpost1;
    int64_t gcap;
    const int8_t *gmark; /* leader mark per global id */
    /* outputs */
    int64_t steps; /* interactions run by the last call */
    int64_t hits;  /* global-table hits, drained by Python */
    int64_t pre0;  /* the local pair a SLOT_MISS return leaves to Python */
    int64_t pre1;
    int64_t gpre0; /* ... and its global ids */
    int64_t gpre1;
} slot_lane;

/* Whether the tables can take the posts (global ids) of one pair. */
static int room_for(const slot_lane *lane, int32_t post0, int32_t post1)
{
    int64_t need = (lane->local_of[post0] < 0)
                   + (post1 != post0 && lane->local_of[post1] < 0);
    return lane->locals + need <= lane->limit;
}

static int32_t intern_local(slot_lane *lane, int32_t global)
{
    int32_t local = lane->local_of[global];
    if (local < 0) {
        local = (int32_t)lane->locals++;
        lane->local_of[global] = local;
        lane->global_of[local] = global;
        lane->mark[local] = lane->gmark[global];
        lane->prefix[local] = (int32_t)lane->n;
    }
    return local;
}

/* Move one agent from local state s to t by rewriting block boundaries. */
static inline void move_agent(int32_t *slots, int32_t *prefix, int32_t s,
                              int32_t t)
{
    if (t == s + 1) { /* adjacent up-move: the dominant case */
        int32_t boundary = prefix[s];
        slots[boundary - 1] = t;
        prefix[s] = boundary - 1;
    } else if (t > s) {
        /* Ascending: when empty intermediate blocks collapse several
           boundary writes onto one slot, the highest state must land
           there (last write wins). */
        for (int32_t y = s; y < t; y++) {
            int32_t boundary = prefix[y];
            slots[boundary - 1] = y + 1;
            prefix[y] = boundary - 1;
        }
    } else if (t < s) {
        /* Descending for the mirror-image reason: the lowest state must
           survive on a collapsed boundary slot. */
        for (int32_t y = s - 1; y >= t; y--) {
            int32_t boundary = prefix[y];
            slots[boundary] = y;
            prefix[y] = boundary + 1;
        }
    }
}

int slot_run(slot_lane *lane, int64_t max_steps)
{
    const int64_t *d1 = lane->d1;
    const int64_t *d2 = lane->d2;
    int32_t *slots = lane->slots;
    int32_t *prefix = lane->prefix;
    int32_t *post0 = lane->post0;
    int32_t *post1 = lane->post1;
    const int8_t *mark = lane->mark;
    const int64_t cap = lane->cap;
    const int64_t target = lane->target;
    int64_t cursor = lane->cursor;
    int64_t lead = lane->lead;
    int64_t executed = 0;
    int64_t hits = 0;
    int status = SLOT_BUDGET;

    while (executed < max_steps) {
        if (cursor >= lane->batch) {
            status = SLOT_REFILL;
            break;
        }
        int32_t p0 = slots[d1[cursor]];
        int64_t t2 = d2[cursor];
        /* Responder ticket over n-1 agents: skip the initiator's slot
           (virtually the last slot of its block). */
        int32_t p1 = slots[t2 + (t2 >= prefix[p0] - 1)];
        int64_t key = p0 * cap + p1;
        int32_t q0 = post0[key];
        if (q0 < 0) {
            int64_t g0 = lane->global_of[p0];
            int64_t g1 = lane->global_of[p1];
            int32_t r0 = -1;
            int64_t gkey = 0;
            if (lane->gpost0 != NULL && g0 < lane->gcap && g1 < lane->gcap) {
                gkey = g0 * lane->gcap + g1;
                r0 = lane->gpost0[gkey];
            }
            if (r0 < 0) {
                lane->pre0 = p0;
                lane->pre1 = p1;
                lane->gpre0 = g0;
                lane->gpre1 = g1;
                status = SLOT_MISS;
                break;
            }
            int32_t r1 = lane->gpost1[gkey];
            if (!room_for(lane, r0, r1)) {
                status = SLOT_GROW;
                break;
            }
            hits++;
            q0 = intern_local(lane, r0);
            post0[key] = q0;
            post1[key] = intern_local(lane, r1);
        }
        int32_t q1 = post1[key];
        cursor++;
        executed++;
        if (q0 == p0 && q1 == p1)
            continue;
        move_agent(slots, prefix, p0, q0);
        move_agent(slots, prefix, p1, q1);
        int delta = mark[q0] + mark[q1] - mark[p0] - mark[p1];
        if (delta) {
            lead += delta;
            if (lead == target) {
                status = SLOT_TARGET;
                break;
            }
        }
    }
    lane->cursor = cursor;
    lane->lead = lead;
    lane->steps = executed;
    lane->hits += hits;
    return status;
}

/* Store the posts (global ids) Python resolved for the pair a SLOT_MISS
   return left, interning them locally; 0 if the tables lack room. */
int slot_store(slot_lane *lane, int64_t post0, int64_t post1)
{
    if (!room_for(lane, (int32_t)post0, (int32_t)post1))
        return 0;
    int64_t key = lane->pre0 * lane->cap + lane->pre1;
    lane->post0[key] = intern_local(lane, (int32_t)post0);
    lane->post1[key] = intern_local(lane, (int32_t)post1);
    return 1;
}
